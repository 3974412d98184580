"""Test-only reference: sphere sampling through scipy.

`reference_sphere_points` draws the random part of the sphere points with
`scipy.stats.qmc.Sobol` and maps it through `scipy.special.ndtri`.
`logweight.sphere_points` uses numpy ports of both; it must reproduce
these points bit for bit.
"""

import cmath
import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc


def reference_sphere_points(d: int, count: int, seed: int = 0) -> np.ndarray:
    if count < 2 * d + 2:
        raise ValueError(f"need at least {2 * d + 2} sphere samples for d={d}")
    structured = []
    for q in range(d):
        v = np.zeros(d, dtype=complex)
        v[q] = 1.0
        structured.append(v)
        v = np.zeros(d, dtype=complex)
        v[q] = cmath.exp(0.5j * math.pi / (q + 1))
        structured.append(v)
    structured.append(np.full(d, 1.0 / math.sqrt(d), dtype=complex))
    phases = np.exp(2j * math.pi * np.arange(d) / max(d, 2))
    structured.append(phases / math.sqrt(d))
    structured = np.asarray(structured)

    n_rand = count - len(structured)
    sob = qmc.Sobol(2 * d, scramble=True, seed=seed)
    m = 1 << max(1, math.ceil(math.log2(max(n_rand, 1))))
    raw = sob.random(m)[:n_rand]
    g = ndtri(np.clip(raw, 1e-12, 1.0 - 1e-12))
    z = g[:, :d] + 1j * g[:, d:]
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0] = 1.0
    z = z / norms[:, None]
    return np.concatenate([structured, z], axis=0)
