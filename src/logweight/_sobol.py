"""Scrambled Sobol points and the inverse normal CDF in numpy alone.

Bit-identical ports of the two scipy routines that sphere sampling used:
`scipy.stats.qmc.Sobol(dim, scramble=True, seed=seed).random(n)` (Joe-Kuo
direction numbers, linear matrix scramble plus digital shift, points in
Gray-code order) and `scipy.special.ndtri` (the Cephes algorithm).  The
tests check both against scipy.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_BITS = 30
_PLACE = np.arange(_BITS - 1, -1, -1, dtype=np.uint32)  # digit j sits at bit 29 - j

# Joe-Kuo primitive polynomial and initial direction numbers (as many as
# the polynomial's degree) of dimensions 2..64, as in scipy's
# stats/_sobol_direction_numbers.npz; dimension 1 uses all ones.
_DIRECTIONS = (
    (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)), (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)), (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)), (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)), (143, (1, 1, 3, 13, 7, 35, 63)),
    (145, (1, 3, 5, 9, 1, 25, 53)), (157, (1, 3, 1, 13, 9, 35, 107)),
    (167, (1, 3, 1, 5, 27, 61, 31)), (171, (1, 1, 5, 11, 19, 41, 61)),
    (185, (1, 3, 5, 3, 3, 13, 69)), (191, (1, 1, 7, 13, 1, 19, 1)),
    (193, (1, 3, 7, 5, 13, 19, 59)), (203, (1, 1, 3, 9, 25, 29, 41)),
    (211, (1, 3, 5, 13, 23, 1, 55)), (213, (1, 3, 7, 3, 13, 59, 17)),
    (229, (1, 3, 1, 3, 5, 53, 69)), (239, (1, 1, 5, 5, 23, 33, 13)),
    (241, (1, 1, 7, 7, 1, 61, 123)), (247, (1, 1, 7, 9, 13, 61, 49)),
    (253, (1, 3, 3, 5, 3, 55, 33)), (285, (1, 3, 1, 15, 31, 13, 49, 245)),
    (299, (1, 3, 5, 15, 31, 59, 63, 97)),
    (301, (1, 3, 1, 11, 11, 11, 77, 249)), (333, (1, 3, 1, 11, 27, 43, 71, 9)),
    (351, (1, 1, 7, 15, 21, 11, 81, 45)), (355, (1, 3, 7, 3, 25, 31, 65, 79)),
    (357, (1, 3, 1, 1, 19, 11, 3, 205)), (361, (1, 1, 5, 9, 19, 21, 29, 157)),
    (369, (1, 3, 7, 11, 1, 33, 89, 185)), (391, (1, 3, 3, 3, 15, 9, 79, 71)),
    (397, (1, 3, 7, 11, 15, 39, 119, 27)),
    (425, (1, 1, 3, 1, 11, 31, 97, 225)), (451, (1, 1, 1, 3, 23, 43, 57, 177)),
    (463, (1, 3, 7, 7, 17, 17, 37, 71)), (487, (1, 3, 1, 5, 27, 63, 123, 213)),
    (501, (1, 1, 3, 5, 11, 43, 53, 133)),
    (529, (1, 3, 5, 5, 29, 17, 47, 173, 479)),
    (539, (1, 3, 3, 11, 3, 1, 109, 9, 69)),
    (545, (1, 1, 1, 5, 17, 39, 23, 5, 343)),
    (557, (1, 3, 1, 5, 25, 15, 31, 103, 499)),
    (563, (1, 1, 1, 11, 11, 17, 63, 105, 183)),
    (601, (1, 1, 5, 11, 9, 29, 97, 231, 363)),
    (607, (1, 1, 5, 15, 19, 45, 41, 7, 383)),
    (617, (1, 3, 7, 7, 31, 19, 83, 137, 221)),
    (623, (1, 1, 1, 3, 23, 15, 111, 223, 83)),
    (631, (1, 1, 5, 13, 31, 15, 55, 25, 161)),
    (637, (1, 1, 3, 13, 25, 47, 39, 87, 257)),
)
MAX_DIM = len(_DIRECTIONS) + 1


@lru_cache(maxsize=1)
def _direction_numbers() -> np.ndarray:
    """The unscrambled (MAX_DIM, 30) direction numbers, each scaled to
    its bit position: column j holds m_j * 2^(29 - j)."""
    rows = [[1] * _BITS]
    for poly, init in _DIRECTIONS:
        deg = len(init)
        m = list(init)
        for j in range(deg, _BITS):
            new = m[j - deg]
            for k in range(deg):
                if (poly >> (deg - 1 - k)) & 1:
                    new ^= m[j - k - 1] << (k + 1)
            m.append(new)
        rows.append(m)
    table = np.array(rows, dtype=np.uint32) << _PLACE
    table.flags.writeable = False
    return table


def scrambled_sobol(dim: int, n: int, seed: int) -> np.ndarray:
    """The first n points of the scrambled Sobol sequence in [0, 1)^dim
    seeded as `qmc.Sobol(dim, scramble=True, seed=seed)`, for
    1 <= dim <= MAX_DIM."""
    rng = np.random.default_rng(seed)
    shift = rng.integers(0, 2, size=(dim, _BITS), dtype=np.uint32) @ (
        np.uint32(1) << np.arange(_BITS, dtype=np.uint32))
    draws = rng.integers(0, 2, size=(dim, _BITS, _BITS), dtype=np.uint32)
    ltm = np.tril(draws, -1) + np.eye(_BITS)  # lower triangular, unit diagonal
    # Linear matrix scramble over GF(2), digits counted from the most
    # significant bit: digit p of a scrambled direction number is the
    # parity of row p of ltm dotted with the digits of the original.  The
    # float product is exact: each sum counts at most 30 ones.
    digits = ((_direction_numbers()[:dim, :, None] >> _PLACE) & 1).astype(float)
    parity = (digits @ ltm.transpose(0, 2, 1)).astype(np.uint32) & 1
    v = parity @ (np.uint32(1) << _PLACE)
    # Gray-code order: point 2^k + i is point 2^k - 1 - i xor v[:, k].
    q = shift[None, :]
    for k in range(max(n - 1, 0).bit_length()):
        q = np.concatenate([q, q[::-1] ^ v[:, k]])
    return q[:n] * (1.0 / (1 << _BITS))


# Cephes ndtri: rational approximations on the central part
# |p - 1/2| < 1/2 - exp(-2), and in the tails for sqrt(-2 log p) below
# and above 8 (p above and below exp(-32)).
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)


def _polevl(x, coef):
    """coef[0] x^N + ... + coef[N] in Horner order."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """x^N + coef[0] x^(N-1) + ... + coef[N-1]: a leading coefficient of 1."""
    return _polevl(x, (1.0, *coef))


def _libm_log(a: np.ndarray) -> np.ndarray:
    """log elementwise through libm, as Cephes calls it: numpy's vector
    log does not match it in every last bit."""
    return np.array([math.log(v) for v in a.tolist()])


def _ndtri_tail(y: np.ndarray) -> np.ndarray:
    """ndtri(y) for 0 < y <= exp(-2)."""
    x = np.sqrt(-2.0 * _libm_log(y))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _polevl(z, _P1) / _p1evl(z, _Q1),
                  z * _polevl(z, _P2) / _p1evl(z, _Q2))
    return -(x0 - x1)


def ndtri(p) -> np.ndarray:
    """Inverse of the standard normal CDF, elementwise, bit for bit as
    `scipy.special.ndtri`: -inf at 0, inf at 1, nan outside [0, 1]."""
    p = np.asarray(p, dtype=float)
    out = np.full(p.shape, np.nan)
    out[p == 0.0] = -np.inf
    out[p == 1.0] = np.inf
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    central = y > _EXP_M2
    c = p[central] - 0.5
    c2 = c * c
    out[central] = (c + c * (c2 * _polevl(c2, _P0) / _p1evl(c2, _Q0))) * _S2PI
    tail = ~central & ~(y <= 0.0)  # nan goes through the tail, as in Cephes
    out[tail] = _ndtri_tail(y[tail])
    out[tail & upper] *= -1.0
    return out
