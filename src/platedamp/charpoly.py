"""Uniform resistance sweeps by the characteristic polynomial.

Where every candidate of a sweep puts one load on every voltage node, its
system at a band frequency is A0 + sI, with s the load's admittance and
A0 the same for every candidate. So the Faddeev-LeVerrier recursion
(Householder, The Theory of Matrices in Numerical Analysis, 1964) gives
the coefficients in s of p(s) = det(sI + A0) and N(s) = adj(sI + A0) b
once per frequency, and each candidate's voltages v = N(s) / p(s) take
O(m) vector operations by Horner's rule, instead of a dense solve.

Every candidate's residual (A0 + sI) v - b is checked against the bound
of ``response.solve_voltages``, and a NaN fails. A frequency where the
check fails is recomputed by the kernel's ``velocity``, whose own guard
raises where it must. The recursion costs about as much as the solves of
4m candidates (m nodes), so ``tuning`` sends only sweeps of at least 4m
candidates here, and imports this module only for them. Products are m
broadcast multiply-adds: a stacked complex ``@`` loads BLAS's zgemm.
"""

from __future__ import annotations

import numpy as np

from .response import _admittance, _squared_norm, _stacks


def coefficients(A0: np.ndarray, b: np.ndarray):
    """[c_1 .. c_m] and [n_0 .. n_(m-1)] of det(s I + A0) = s^m + c_1 s^(m-1)
    + ... + c_m and adj(s I + A0) b = n_0 s^(m-1) + ... + n_(m-1), for A0
    (..., m, m) and b (..., m): B_0 = I, and for k = 1 .. m, T = -A0 B_(k-1),
    c_k = -tr T / k, B_k = T + c_k I and n_k = B_k b."""
    m = b.shape[-1]
    B, c, n = np.eye(m), [], [b]
    for k in range(1, m + 1):
        T = -sum(A0[..., :, j, None] * B[..., None, j, :] for j in range(m))
        c.append(-np.trace(T, axis1=-2, axis2=-1) / k)
        B = T + c[-1][..., None, None] * np.eye(m)
        n.append(sum(B[..., :, j] * b[..., j, None] for j in range(m)))
    return c, n[:m]


def velocity(kernel, freqs_hz: np.ndarray, nodes, ohms: np.ndarray,
             henries: np.ndarray) -> np.ndarray:
    """``kernel.velocity(freqs_hz, nodes, ohms, henries)`` (C, Q) for C
    candidates that each put one load ``ohms``, ``henries`` (C, 1) on all
    of m >= 1 ``nodes``. Here s = 1/z + j*omega*c_1 with c_1 the first
    node's capacitance, and A0 holds j*omega*(c_i - c_1) on its diagonal,
    so one node gives the bits of the kernel's division: s + A0 is its
    A0 + s."""
    m, omega = nodes.caps.size, 2.0 * np.pi * freqs_hz
    S, b, d0, g = kernel.structure(omega, nodes)
    A0 = S + 1j * omega[:, None, None] * (nodes.caps - nodes.caps[0]) * np.eye(m)
    c, n = coefficients(A0, b)
    vals, bad = np.empty((len(ohms), omega.size)), np.zeros(omega.size, dtype=bool)
    # m times the kernel's candidates a stack: each (c, Q, m) array below is
    # as large as the kernel's stacked systems (c / m, Q, m, m), and at most
    # three are alive at once
    for i in _stacks(len(ohms), omega.size * (m * m + kernel.n) // m):
        with np.errstate(all="ignore"):  # non-finite fails the check
            s = _admittance(ohms[i], henries[i], omega) + 1j * omega * nodes.caps[0]
            p, v = s + c[0], np.broadcast_to(b, s.shape + (m,))
            for ck, nk in zip(c[1:], n[1:]):
                p, v = p * s + ck, v * s[..., None]
                v += nk
            v = v / p[..., None]
            resid = s[..., None] * v
            resid -= b
            for j in range(m):
                resid += A0[:, :, j] * v[..., j, None]
            disp = d0 + np.sum(v * g, axis=-1)
            # response._check_residual's bound, candidate by candidate
            bad |= ~(np.isfinite(disp) & (_squared_norm(resid, -1)
                                          <= 1e-20 * _squared_norm(b, -1))).all(axis=0)
        vals[i] = np.abs(1j * omega * disp)
    if bad.any():
        vals[:, bad] = kernel.velocity(freqs_hz[bad], nodes, ohms, henries)
    return vals
