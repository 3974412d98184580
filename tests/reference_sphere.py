"""Test-only reference: the sphere points with phi found by scipy.

`reference_sphere_points` rebuilds the structured prefix row by row, takes
phi, the root of x^{2d+1} = x + 1, from `scipy.optimize.brentq` on that
polynomial, and draws the shift frac(seed alpha_j) in exact rational
arithmetic with `fractions.Fraction`. `logweight.sphere_points` finds phi by
fixed-point steps of x -> (1 + x)^{1/(2d+1)} and the shift from integer
ratios; it must reproduce these points bit for bit.
"""

import cmath
import math
from fractions import Fraction

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
    if d > 1:  # for d = 1 the balanced vectors would repeat the first row
        structured.append(np.full(d, 1.0 / math.sqrt(d), dtype=complex))
        phases = np.exp(2j * math.pi * np.arange(d) / d)
        structured.append(phases / math.sqrt(d))
    structured = np.asarray(structured)

    phi = brentq(lambda x: x ** (2 * d + 1) - x - 1.0, 1.0, 2.0,
                 xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
    alpha = phi ** -np.arange(1.0, 2 * d + 1)
    shift = np.array([float(Fraction(seed) * Fraction(a) % 1) for a in alpha.tolist()])
    n = np.arange(1.0, count - len(structured) + 1)
    u = np.mod(shift + n[:, None] * alpha, 1.0)
    # a zero radius coordinate is lifted to the least subnormal, so that a
    # row of zeros (seed 2^64 - 1 at n = 1) normalizes to the balanced vector
    radius = np.sqrt(-2.0 * np.log1p(-np.where(u[:, :d] == 0.0, 5e-324, u[:, :d])))
    z = radius * np.exp(2j * math.pi * u[:, d:])
    z = z / np.linalg.norm(z, axis=1)[:, None]
    return np.concatenate([structured, z], axis=0)
