"""Clamped-clamped Euler-Bernoulli beam eigenfunctions.

These are the 1D building blocks of the plate trial functions: each
satisfies zero deflection and zero slope at both ends, so their tensor
products satisfy the fully clamped plate boundary conditions.

The textbook form cosh(b x) - cos(b x) - sigma (sinh(b x) - sin(b x))
loses all significant digits beyond mode ~15, as cosh(b x) grows like
exp(lam) while (1 - sigma) decays at the same rate. Here every
exponential has a non-positive argument instead: with beta = lam / L,
xi = beta x and D = 1 - 2 exp(-lam) sin(lam) - exp(-2 lam), the d-th
derivative is beta^d N_d(xi) / D, where

    N_0 = exp(-xi) - exp(xi - 2 lam) + (cos lam - sin lam) exp(xi - lam)
          - (cos lam + sin lam) exp(-xi - lam) - (1 - exp(-2 lam)) cos(xi)
          + (1 + exp(-2 lam)) sin(xi) + 2 exp(-lam) sin(lam - xi).

Each step N_d -> N_{d+1} = dN_d/dxi flips the sign of the exp(-xi) and
exp(-xi - lam) terms and turns each trig term by a quarter-turn, by
exact swaps and sign flips: cos(xi) -> -sin(xi), sin(xi) -> cos(xi),
sin(lam - xi) -> -cos(lam - xi). One step back gives the antiderivative
N_{-1}; the integral over [lo, hi] is its difference, divided by beta D.
Normalization matches the textbook form: int_0^L phi_i phi_j = L delta_ij.
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


def _turn(sin_cos, k: int):
    """sin(t + k pi/2) from the pair (sin t, cos t)."""
    return sin_cos[k % 2] if k % 4 < 2 else -sin_cos[k % 2]


def _numerators(indices, length: float, x: np.ndarray, orders):
    """N_d of the mode functions of the given indices at ``x`` for each
    order d in ``orders`` (-1 to 2), shape (len(orders),) + x.shape +
    (len(indices),), with beta and D; the exponentials and trig values
    are computed once for all orders, and all exp arguments are <= 0.

    Raises ValueError unless every x lies in [0, length]; NaN fails too.
    """
    if not (np.all(x >= -1e-12 * length) and np.all(x <= length * (1.0 + 1e-12))):
        raise ValueError("coordinate outside [0, length]")
    lam = np.array([eigenvalue(i) for i in indices])
    beta = lam / length
    xi = np.clip(x[..., None] * beta, 0.0, lam)
    c, s = np.cos(lam), np.sin(lam)
    eL, eL2 = np.exp(-lam), np.exp(-2.0 * lam)
    e_m, e_m2 = np.exp(-xi), np.exp(-xi - lam)
    e_p, e_p2 = np.exp(xi - lam), np.exp(xi - 2.0 * lam)
    trig, back = (np.sin(xi), np.cos(xi)), (np.sin(lam - xi), np.cos(lam - xi))
    rows = []
    for d in orders:
        flip = (-1.0) ** d
        rows.append(flip * e_m - e_p2 + (c - s) * e_p - flip * (c + s) * e_m2
                    - (1.0 - eL2) * _turn(trig, d + 1) + (1.0 + eL2) * _turn(trig, d)
                    + 2.0 * eL * _turn(back, -d))
    return np.stack(rows), beta, 1.0 - 2.0 * eL * s - eL2


def integral(n_funcs: int, length: float, lo, hi) -> np.ndarray:
    """Exact integrals over [lo, hi] within [0, length] of the first
    ``n_funcs`` mode functions, shape (n_funcs,); for arrays of interval
    ends ``lo`` and ``hi`` of one shape, that shape + (n_funcs,)."""
    (anti,), beta, den = _numerators(range(1, n_funcs + 1), length,
                                     np.array([lo, hi], dtype=float), (-1,))
    return (anti[1] - anti[0]) / (beta * den)


def eval_matrix(n_funcs: int, length: float, x, derivative_order=0) -> np.ndarray:
    """The first ``n_funcs`` mode functions (or derivatives of order 0, 1
    or 2) at the points ``x`` in [0, length], shape (len(x), n_funcs); a
    sequence of orders stacks them on a leading axis, from one evaluation
    of the shared terms per block of at most 2**12 values, so that each of
    its dozen or so temporaries stays that small at any point count."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    single = np.ndim(derivative_order) == 0
    orders = (derivative_order,) if single else tuple(derivative_order)
    if any(d not in (0, 1, 2) for d in orders):
        raise ValueError("derivative orders other than 0, 1 and 2 are unsupported")
    out, step = np.empty((len(orders), x.size, n_funcs)), max(1, 2**12 // n_funcs)
    for i in range(0, x.size, step):
        part, beta, den = _numerators(range(1, n_funcs + 1), length, x[i:i + step], orders)
        for row, d in zip(part, orders):
            row *= beta ** d
        np.divide(part, den, out=out[:, i:i + step])
    return out[0] if single else out
