"""Test-only reference: the sphere points with phi found by scipy.

`reference_sphere_points` rebuilds the structured prefix row by row and
takes phi, the root of x^{2d+1} = x + 1, from `scipy.optimize.brentq` on
that polynomial. `logweight.sphere_points` finds phi by fixed-point steps
of x -> (1 + x)^{1/(2d+1)}; it must reproduce these points bit for bit.
"""

import cmath
import math

import numpy as np
from scipy.optimize import brentq


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

    phi = brentq(lambda x: x ** (2 * d + 1) - x - 1.0, 1.0, 2.0,
                 xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
    alpha = phi ** -np.arange(1.0, 2 * d + 1)
    shift = np.random.default_rng(seed).random(2 * d)
    n = np.arange(1.0, count - len(structured) + 1)
    u = np.mod(shift + n[:, None] * alpha, 1.0)
    radius = np.sqrt(-2.0 * np.log1p(-u[:, :d]))
    z = radius * np.exp(2j * math.pi * u[:, d:])
    z = z / np.linalg.norm(z, axis=1)[:, None]
    return np.concatenate([structured, z], axis=0)
