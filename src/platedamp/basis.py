"""Clamped-clamped Euler-Bernoulli beam eigenfunctions.

These are the 1D building blocks of the plate trial functions: each
satisfies zero deflection and zero slope at both ends, so their tensor
products satisfy the fully clamped plate boundary conditions.

The textbook form

    phi(x) = cosh(b x) - cos(b x) - sigma * (sinh(b x) - sin(b x))

is numerically useless beyond mode ~15: cosh(b x) grows like exp(lam)
while (1 - sigma) decays at the same rate, so the product loses all
significant digits and eventually overflows. Every evaluation here uses
an algebraically equivalent form in which all exponentials have
non-positive arguments, valid for any mode index in double precision.

Normalization matches the textbook form, for which
``integral(phi_i * phi_j, 0, L) = L * delta_ij``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def eigenvalue(index: int) -> float:
    """i-th positive root of cos(lam) * cosh(lam) = 1 (index starts at 1).

    Solved as cos(lam) - 1/cosh(lam) = 0, which stays bounded for large
    arguments, by bisection on (index + 1/2) * pi +- 0.3: the roots
    approach the centre from alternating sides. Bisection stops when the
    midpoint no longer moves, so the bracket is two adjacent doubles;
    the one with the smaller residual is the root rounded to nearest.
    """
    if index < 1:
        raise ValueError("mode index starts at 1")

    def f(lam):
        e = math.exp(-lam)
        return math.cos(lam) - 2.0 * e / (1.0 + e * e)

    center = (index + 0.5) * math.pi
    lo, hi = center - 0.3, center + 0.3
    f_lo, f_hi = f(lo), f(hi)
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise ValueError(f"no sign change around root {index}")
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo if abs(f_lo) <= abs(f_hi) else hi
        f_mid = f(mid)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid


def _pieces(lam, xi: np.ndarray):
    """Shared exponential/trig terms of the scaled mode function; ``lam``
    is one eigenvalue or one per last-axis column of ``xi``.

    All exp arguments are <= 0 for xi in [0, lam].
    """
    c, s = np.cos(lam), np.sin(lam)
    e_m = np.exp(-xi)                 # exp(-xi)
    e_p = np.exp(xi - lam)            # exp(xi - lam)
    e_p2 = np.exp(xi - 2.0 * lam)     # exp(xi - 2 lam)
    e_m2 = np.exp(-xi - lam)          # exp(-xi - lam)
    eL = np.exp(-lam)
    eL2 = np.exp(-2.0 * lam)
    return c, s, e_m, e_p, e_p2, e_m2, eL, eL2


def _denominator(lam):
    # (sinh(lam) - sin(lam)) scaled by 2 exp(-lam); order 1 for all modes
    return 1.0 - 2.0 * np.exp(-lam) * np.sin(lam) - np.exp(-2.0 * lam)


def _modes(indices, length: float, x: np.ndarray, derivative_order: int) -> np.ndarray:
    """Mode functions (or derivatives) of the given indices at ``x``,
    shape x.shape + (len(indices),): the rewritten formula evaluated once
    on the (points, functions) array."""
    if derivative_order not in (0, 1, 2):
        raise ValueError("derivative_order > 2 is unsupported")
    if np.any(x < -1e-12 * length) or np.any(x > length * (1.0 + 1e-12)):
        raise ValueError("coordinate outside [0, length]")
    lam = np.array([eigenvalue(i) for i in indices])
    beta = lam / length
    xi = np.clip(x[..., None] * beta, 0.0, lam)
    c, s, e_m, e_p, e_p2, e_m2, eL, eL2 = _pieces(lam, xi)
    if derivative_order == 0:
        n = (e_m - e_p2 + (c - s) * e_p - (c + s) * e_m2
             - (1.0 - eL2) * np.cos(xi) + (1.0 + eL2) * np.sin(xi)
             + 2.0 * eL * np.sin(lam - xi))
        scale = 1.0
    elif derivative_order == 1:
        n = (-e_m - e_p2 + (c - s) * e_p + (c + s) * e_m2
             + (1.0 - eL2) * np.sin(xi) + (1.0 + eL2) * np.cos(xi)
             - 2.0 * eL * np.cos(lam - xi))
        scale = beta
    else:
        n = (e_m - e_p2 + (c - s) * e_p - (c + s) * e_m2
             + (1.0 - eL2) * np.cos(xi) - (1.0 + eL2) * np.sin(xi)
             - 2.0 * eL * np.sin(lam - xi))
        scale = beta * beta
    return scale * n / _denominator(lam)


def evaluate(index: int, length: float, x, derivative_order: int = 0):
    """Mode function (or derivative) of the clamped-clamped beam.

    ``derivative_order`` may be 0, 1 or 2. ``x`` may be a scalar or
    array with 0 <= x <= length.
    """
    return _modes((index,), length, np.asarray(x, dtype=float), derivative_order)[..., 0][()]


def integral(index: int, length: float, lo: float, hi: float) -> float:
    """Exact integral of the mode function over [lo, hi] within [0, length]."""
    lam = eigenvalue(index)
    beta = lam / length

    def antiderivative(xv):
        xi = np.clip(xv * beta, 0.0, lam)
        c, s, e_m, e_p, e_p2, e_m2, eL, eL2 = _pieces(lam, np.asarray(xi))
        return (-e_m - e_p2 + (c - s) * e_p + (c + s) * e_m2
                - (1.0 - eL2) * np.sin(xi) - (1.0 + eL2) * np.cos(xi)
                + 2.0 * eL * np.cos(lam - xi))

    return float(antiderivative(hi) - antiderivative(lo)) / (beta * _denominator(lam))


def eval_matrix(n_funcs: int, length: float, x, derivative_order: int = 0) -> np.ndarray:
    """Stack of the first ``n_funcs`` mode functions: shape (len(x), n_funcs)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _modes(range(1, n_funcs + 1), length, x, derivative_order)
