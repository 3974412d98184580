"""Test-only reference: the emit CSV formatted cell by cell.

`reference_emit_rows` takes the grid that `series._sandwich_blocks`
streams and prints every value of every (t, theta) cell with %.17g, one
call per value.  `cli._emit_rows` formats the columns j = 0 .. N // 2
and reuses a cell's text at column N - j when the five values there have
the same bits; it must give the same bytes.
"""

import numpy as np


def reference_emit_rows(t_grid, thetas, log_w, lo, hi, blocks) -> str:
    out = []
    for rows, g1, g2 in blocks:
        # one array logaddexp per block, as emit computes it
        log_s = np.logaddexp(g1, g2)
        for r, i in enumerate(range(rows.start, rows.stop)):
            for j, theta in enumerate(thetas.tolist()):
                s = float(log_s[r, j])
                values = (float(t_grid[i]), theta, float(g1[r, j]), float(g2[r, j]), s,
                          float(log_w[i]), s - float(lo[i]), float(hi[i]) - s)
                out.append(",".join("%.17g" % v for v in values) + "\n")
    return "".join(out)
