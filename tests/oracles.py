"""Independent oracles used by the test suite.

Everything here deliberately avoids the package's production code paths:
finite differences instead of Ritz, a monolithic coupled solve instead
of the voltage-space elimination, per-frequency loops instead of the
batched response kernel, a candidate-by-candidate peak search instead
of the stacked sweep batches, a descent whose every coordinate sweep
starts afresh instead of one that carries its base solve, a
cell-by-cell mesh sum instead of the bare-plate-plus-patch-delta
assembly, 1D Grams interval by interval, each from its own basis
evaluation, instead of one evaluation per axis, direct quadrature
instead of closed forms, arbitrary-precision arithmetic for the beam
functions, and the open-circuit modal eigenproblem for the effective
coupling of each mode, with the classical resistive-shunt tuning and
reduction ceiling.
"""

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import quad
from scipy.optimize import brentq


def fd_plate_frequencies_hz(a, b, h, E, nu, rho, n_modes=6, nx=200, ny=200):
    """Clamped-plate natural frequencies from a 13-point biharmonic stencil.

    Interior grid of nx x ny points; w = 0 on the boundary removes the
    edge unknowns and the zero-slope condition enters through mirror
    ghost values (w[-1] = w[1]) in the one-dimensional fourth
    differences. The resulting operator is symmetric positive definite,
    so shift-invert Lanczos at zero returns the lowest eigenvalues.
    """
    D = E * h**3 / (12.0 * (1.0 - nu**2))
    hx = a / (nx + 1)
    hy = b / (ny + 1)

    def second_diff(n, step):
        return sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / step**2

    def fourth_diff(n, step):
        main = np.full(n, 6.0)
        main[0] = 7.0
        main[-1] = 7.0
        off1 = np.full(n - 1, -4.0)
        off2 = np.full(n - 2, 1.0)
        return sp.diags([off2, off1, main, off1, off2], [-2, -1, 0, 1, 2]) / step**4

    Ix = sp.identity(nx)
    Iy = sp.identity(ny)
    biharm = (sp.kron(fourth_diff(nx, hx), Iy)
              + sp.kron(Ix, fourth_diff(ny, hy))
              + 2.0 * sp.kron(second_diff(nx, hx), second_diff(ny, hy)))
    lam = spla.eigsh(biharm.tocsc(), k=n_modes, sigma=0.0, which="LM",
                     return_eigenvectors=False)
    omega = np.sqrt(np.sort(lam) * D / (rho * h))
    return omega / (2.0 * np.pi)


def monolithic_separated(model, loads, force, omega, n_modes):
    """Solve the coupled modal + circuit system in one dense complex solve.

    Unknowns are the modal amplitudes followed by the patch voltages;
    the modal rows carry the resonant denominators and the voltage
    forcing, the circuit rows balance patch current against branch and
    capacitive admittance. Returns (modal_amplitudes, voltages).
    """
    n = n_modes
    k = len(model.patches)
    theta = model.coupling[:n, :]
    omg = model.frequencies[:n]
    zeta = model.damping_ratios[:n]
    phi0 = model.mode_shapes_at(force.x, force.y)[:n]
    delta = omg**2 - omega**2 + 2j * zeta * omg * omega

    A = np.zeros((n + k, n + k), dtype=complex)
    A[:n, :n] = np.diag(delta)
    A[:n, n:] = -theta
    A[n:, :n] = 1j * omega * theta.T
    for i, law in enumerate(loads):
        A[n + i, n + i] = 1.0 / law.impedance(omega) + 1j * omega * model.capacitances[i]
    rhs = np.concatenate([force.amplitude * phi0, np.zeros(k, dtype=complex)])
    sol = np.linalg.solve(A, rhs)
    return sol[:n], sol[n:]


def monolithic_connected(model, load, force, omega, n_modes):
    """Monolithic solve with the equal-voltage constraint imposed."""
    n = n_modes
    theta_sum = model.coupling[:n, :].sum(axis=1)
    omg = model.frequencies[:n]
    zeta = model.damping_ratios[:n]
    phi0 = model.mode_shapes_at(force.x, force.y)[:n]
    delta = omg**2 - omega**2 + 2j * zeta * omg * omega

    A = np.zeros((n + 1, n + 1), dtype=complex)
    A[:n, :n] = np.diag(delta)
    A[:n, n] = -theta_sum
    A[n, :n] = 1j * omega * theta_sum
    A[n, n] = 1.0 / load.impedance(omega) + 1j * omega * model.capacitances.sum()
    rhs = np.concatenate([force.amplitude * phi0, [0.0]])
    sol = np.linalg.solve(A, rhs)
    return sol[:n], sol[n]


def _modal_inverse(model, force, target, omega, n):
    omg = model.frequencies[:n]
    zeta = model.damping_ratios[:n]
    phi0 = model.mode_shapes_at(force.x, force.y)[:n]
    phit = model.mode_shapes_at(target[0], target[1])[:n]
    return phi0, phit, 1.0 / (omg**2 - omega**2 + 2j * zeta * omg * omega)


def frf_loop_separated(model, loads, force, target, grid_hz, n_modes):
    """Separated-wiring FRF one frequency at a time.

    At each frequency the K x K voltage-space system is assembled and
    solved on its own. Returns (displacement, voltages) per newton.
    """
    n = n_modes
    theta = model.coupling[:n, :]
    f0 = force.amplitude
    disp = np.zeros(len(grid_hz), dtype=complex)
    volts = np.zeros((len(grid_hz), len(loads)), dtype=complex)
    for i, f in enumerate(grid_hz):
        omega = 2.0 * np.pi * f
        phi0, phit, inv = _modal_inverse(model, force, target, omega, n)
        jw = 1j * omega
        A = jw * (theta * inv[:, None]).T @ theta
        for s, law in enumerate(loads):
            A[s, s] += 1.0 / law.impedance(omega) + jw * model.capacitances[s]
        b = -jw * f0 * (theta.T @ (phi0 * inv))
        v = np.linalg.solve(A, b)
        disp[i] = phit @ ((f0 * phi0 + theta @ v) * inv) / f0
        volts[i] = v / f0
    return disp, volts


def frf_loop_connected(model, load, force, target, grid_hz, n_modes):
    """Connected-wiring FRF one frequency at a time.

    The common node sums capacitances and couplings, so each frequency
    needs one scalar division. Returns (displacement, node voltage) per
    newton.
    """
    n = n_modes
    theta_sum = model.coupling[:n, :].sum(axis=1)
    cap_sum = float(model.capacitances.sum())
    f0 = force.amplitude
    disp = np.zeros(len(grid_hz), dtype=complex)
    volts = np.zeros(len(grid_hz), dtype=complex)
    for i, f in enumerate(grid_hz):
        omega = 2.0 * np.pi * f
        phi0, phit, inv = _modal_inverse(model, force, target, omega, n)
        jw = 1j * omega
        gain = 1.0 / load.impedance(omega) + jw * cap_sum + jw * np.sum(theta_sum**2 * inv)
        v = -jw * f0 * np.sum(theta_sum * phi0 * inv) / gain
        disp[i] = phit @ ((f0 * phi0 + v * theta_sum) * inv) / f0
        volts[i] = v / f0
    return disp, volts


def state_space_frf(model, topology, force, target, grid_hz, n_modes):
    """Displacement (F,) and patch voltages (F, K) per newton from the poles
    and residues of the time-domain system, with no frequency-domain solve.

    The states are x = [q, q', v, i]: n modal amplitudes and their rates,
    one voltage per node (one node per patch when separated, one node with
    the summed coupling and capacitance when connected) and one inductor
    current per series-RL node. The rows are

        q'' + 2 zeta Omega q' + Omega^2 q - theta v = phi0 F
        C v' + theta^T q' + (v / R, or i for an RL node) = 0
        L i' = v - R i

    written as x' = S x + s F. With S = P diag(lam) P^-1 from
    ``np.linalg.eig``, the response at j*omega is
    x = P diag(1 / (j*omega - lam)) P^-1 s, and each output a row of it.
    One step of iterative refinement then adds the same pole-residue sum
    of the residual s - (j*omega - S) x: a short-circuited node's pole
    -1/(RC), near -1e11 1/s, costs the plain sum about 1e-9 of accuracy
    against 4e-15 after the step (reference scenario, shorted patches).
    """
    n = n_modes
    loads = topology.loads
    theta = model.coupling[:n, :]
    caps = model.capacitances
    if topology.mode == "connected":
        theta, caps = theta.sum(axis=1, keepdims=True), caps.sum(keepdims=True)
    m = len(loads)
    rl = [k for k, law in enumerate(loads) if law.henries > 0.0]
    size = 2 * n + m + len(rl)
    omg, zeta = model.frequencies[:n], model.damping_ratios[:n]
    A = np.zeros((size, size))
    inertia = np.ones(size)  # the diagonal matrix multiplying x'
    q, rate, volt = slice(0, n), slice(n, 2 * n), slice(2 * n, 2 * n + m)
    A[q, rate] = np.eye(n)
    A[rate, q] = -np.diag(omg**2)
    A[rate, rate] = -np.diag(2.0 * zeta * omg)
    A[rate, volt] = theta
    A[volt, rate] = -theta.T
    inertia[volt] = caps
    for k, law in enumerate(loads):
        node = 2 * n + k
        if law.henries > 0.0:
            current = 2 * n + m + rl.index(k)
            A[node, current] = -1.0
            A[current, node] = 1.0
            A[current, current] = -law.ohms
            inertia[current] = law.henries
        else:
            A[node, node] = -1.0 / law.ohms
    drive = np.zeros(size)
    drive[rate] = model.mode_shapes_at(force.x, force.y)[:n]
    S, s = A / inertia[:, None], drive / inertia
    lam, P = np.linalg.eig(S)
    jw = 2j * np.pi * np.asarray(grid_hz, dtype=float)

    def pole_residue(rhs):  # (j*omega - S)^-1 rhs for rhs (size, F)
        return P @ (np.linalg.solve(P, rhs) / (jw - lam[:, None]))

    states = pole_residue(np.repeat(s[:, None], jw.size, axis=1))  # (size, F)
    states += pole_residue(s[:, None] - (jw * states - S @ states))
    disp = model.mode_shapes_at(target[0], target[1])[:n] @ states[q]
    volts = states[volt].T
    if topology.mode == "connected":
        volts = np.repeat(volts, len(model.patches), axis=1)
    return disp, volts


class OpenCircuitCoupling(NamedTuple):
    """Per mode of ``open_circuit_coupling``: omega_oc (rad/s), k2,
    c_free and r_opt (one column per node), and ceiling."""

    omega_oc: np.ndarray
    k2: np.ndarray
    c_free: np.ndarray
    r_opt: np.ndarray
    ceiling: np.ndarray


def open_circuit_coupling(model, wiring, n_modes=None):
    """Classical resistive-shunt theory of the first ``n_modes`` modes (all
    of them when None), in ascending order, for ``wiring`` "separated" or
    "connected".

    The model's frequencies are the short-circuit ones. An open node's
    charge balance, theta^T q + C v = 0, puts theta C^-1 theta^T onto the
    modal stiffness Omega^2: one term per patch when separated, and the
    rank-one (sum theta)(sum theta)^T / sum C of a single node when
    connected (Hagood & von Flotow, J. Sound Vib. 146, 1991). That gives
    omega_oc and k2 = (omega_oc^2 - omega_sc^2) / omega_sc^2. For mode r,
    every other mode j adds its static flexibility to each node's
    capacitance, C_free = C + sum_{j != r} theta_j^2 / omega_j^2; the
    resistance tuned to the mode is R_r = 1 / (C_free omega_oc,r), and the
    peak reduction it can reach with modal damping xi is the ceiling
    1 - xi / (xi + k2 / 4) (Thomas, Ducarne & Deu, Smart Mater. Struct.
    21, 2012).
    """
    n = model.n_modes if n_modes is None else n_modes
    theta, caps = model.coupling[:n, :], model.capacitances
    if wiring == "connected":
        theta, caps = theta.sum(axis=1, keepdims=True), caps.sum(keepdims=True)
    omega_sc = model.frequencies[:n]
    lam = np.linalg.eigvalsh(np.diag(omega_sc**2) + (theta / caps) @ theta.T)
    omega_oc, k2 = np.sqrt(lam), (lam - omega_sc**2) / omega_sc**2
    static = (theta / omega_sc[:, None])**2
    c_free = caps + static.sum(axis=0) - static
    xi = model.damping_ratios[:n]
    return OpenCircuitCoupling(omega_oc, k2, c_free, 1.0 / (c_free * omega_oc[:, None]),
                               1.0 - xi / (xi + k2 / 4.0))


REFINE_ROUNDS = 8
REFINE_POINTS = 11


def peak_in_band_loop(objective, topology, band):
    """Refined band peak of one topology, one ``velocity_abs`` call per
    round (the FRF path), as the sweeps computed it candidate by candidate.

    Bracket the grid argmax between its neighbors, then shrink the
    bracket by repeated uniform subdivision. Returns (peak, frequency).
    """
    pts = objective.band_points(band)
    vals = objective.velocity_abs(topology, pts)
    i = int(np.argmax(vals))
    best_f, best_v = float(pts[i]), float(vals[i])
    lo = float(pts[max(i - 1, 0)])
    hi = float(pts[min(i + 1, pts.size - 1)])
    if hi > lo:
        for _ in range(REFINE_ROUNDS):
            sub = np.linspace(lo, hi, REFINE_POINTS)
            sv = objective.velocity_abs(topology, sub)
            j = int(np.argmax(sv))
            if sv[j] > best_v:
                best_v, best_f = float(sv[j]), float(sub[j])
            lo = float(sub[max(j - 1, 0)])
            hi = float(sub[min(j + 1, REFINE_POINTS - 1)])
    return best_v, best_f


def descent_loop(model, force, target, grid_hz, sweep, max_cycles=10, rel_tol=1e-3):
    """``optimize_per_patch`` by explicit topologies: every coordinate sweep
    is one ``peaks_in_band`` call on a new ``VelocityObjective`` over the
    topologies that put each grid resistance on the swept patch, the
    current one included, and every other patch's current resistance on
    the rest. So each sweep solves every candidate's own systems, and no
    rank-one update, carried solution or pruning is used. Returns
    (resistances, objective, uniform sweep result)."""
    from platedamp import (ImpedanceLaw, ShuntTopology, VelocityObjective,
                           sweep_resistance)
    from platedamp.tuning import _resolve_band

    k = len(model.patches)
    base = sweep_resistance(model, force, target, grid_hz, sweep, "separated")
    if k <= 1:
        return [base.r_opt] * k, base.objective_opt, base
    band = _resolve_band(VelocityObjective(model, force, target, grid_hz), sweep)
    rs = sweep.resistances()
    current, best = [base.r_opt] * k, base.objective_opt
    for _ in range(max_cycles):
        cycle_start = best
        for i in range(k):
            objective = VelocityObjective(model, force, target, grid_hz)
            topologies = [ShuntTopology.separated([ImpedanceLaw.resistor(float(r) if j == i
                                                                          else current[j])
                                                   for j in range(k)]) for r in rs]
            vals = objective.peaks_in_band(topologies, band)[0]
            j = int(np.argmin(vals))
            if vals[j] < best:
                best, current[i] = float(vals[j]), float(rs[j])
        if cycle_start - best < rel_tol * cycle_start:
            break
    return current, best, base


def displacement_from_modal(model, modal, target, n_modes):
    phit = model.mode_shapes_at(target[0], target[1])[:n_modes]
    return phit @ modal


def coupling_matrix_quadrature(model, order: int = 24) -> np.ndarray:
    """Quadrature evaluation of the coupling matrix (independent cross-check)."""
    from platedamp import basis
    from platedamp.electromech import _lever_arm
    spec, plate = model.basis, model.plate
    nodes, weights = np.polynomial.legendre.leggauss(order)
    cols = []
    for patch in model.patches:
        xm, xh = 0.5 * (patch.x2 + patch.x1), 0.5 * (patch.x2 - patch.x1)
        ym, yh = 0.5 * (patch.y2 + patch.y1), 0.5 * (patch.y2 - patch.y1)
        xs = xm + xh * nodes
        ys = ym + yh * nodes
        bx0 = basis.eval_matrix(spec.n_x, plate.length_a, xs, 0)
        bx2 = basis.eval_matrix(spec.n_x, plate.length_a, xs, 2)
        by0 = basis.eval_matrix(spec.n_y, plate.width_b, ys, 0)
        by2 = basis.eval_matrix(spec.n_y, plate.width_b, ys, 2)
        wx = weights * xh
        wy = weights * yh
        lap = (np.einsum("q,qi,p,pj->ij", wx, bx2, wy, by0)
               + np.einsum("q,qi,p,pj->ij", wx, bx0, wy, by2)).reshape(-1)
        cols.append(-patch.e31_bar * _lever_arm(plate, patch) * (lap @ model.mode_coeffs))
    if not cols:
        return np.zeros((model.n_modes, 0))
    return np.column_stack(cols)


def axis_cell_integrals(length, n, lo, hi, order):
    """1D Gram matrices (X0, X1, X2, X20) of the trial functions over one
    interval, from a basis evaluation at its own quadrature points only:
    X0 = int f_i f_k, X1 = int f_i' f_k', X2 = int f_i'' f_k'' and
    X20[i, k] = int f_i'' f_k, by the package's Gauss rule on
    max(1, ceil(n (hi - lo) / length)) equal panels."""
    from platedamp import basis
    from platedamp.ritz import _gauss
    nodes, weights = _gauss(order)
    edges = np.linspace(lo, hi, max(1, int(np.ceil(n * (hi - lo) / length))) + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    wts = (half[:, None] * weights[None, :]).ravel()[:, None]
    b0, b1, b2 = basis.eval_matrix(n, length, pts, (0, 1, 2))
    return (b0 * wts).T @ b0, (b1 * wts).T @ b1, (b2 * wts).T @ b2, (b2 * wts).T @ b0


def assemble_system_cell_mesh(plate, patches, spec):
    """Mass and stiffness matrices summed cell by cell over a patch-edge mesh.

    The plate is cut along every patch edge into rectangular cells; each
    cell takes the coefficients of the patch covering its midpoint (or
    of the bare plate) and adds its full Kronecker products of 1D Grams
    into 4D accumulators. Its 1D Grams come from ``axis_cell_integrals``,
    which shares only the Gauss rule and the beam functions with the
    package.
    """
    from platedamp.plate import rigidities, validate_layout
    patches = tuple(patches)
    validate_layout(plate, patches)
    nx, ny = spec.n_x, spec.n_y
    a, b = plate.length_a, plate.width_b

    x_breaks = np.array(sorted({0.0, a, *[e for p in patches for e in (p.x1, p.x2)]}))
    y_breaks = np.array(sorted({0.0, b, *[e for p in patches for e in (p.y1, p.y2)]}))
    x_cells = [axis_cell_integrals(a, nx, x_breaks[i], x_breaks[i + 1], spec.quadrature_order)
               for i in range(len(x_breaks) - 1)]
    y_cells = [axis_cell_integrals(b, ny, y_breaks[j], y_breaks[j + 1], spec.quadrature_order)
               for j in range(len(y_breaks) - 1)]

    rig = [rigidities(plate, p) for p in patches]
    m_bare = plate.density_rhos * plate.thickness_hs
    Ds = plate.youngs_Ys * plate.thickness_hs**3 / (12.0 * (1.0 - plate.poisson_nus**2))

    M4 = np.zeros((nx, ny, nx, ny))
    K4 = np.zeros((nx, ny, nx, ny))
    for ix in range(len(x_breaks) - 1):
        X0, X1, X2, X20 = x_cells[ix]
        xm = 0.5 * (x_breaks[ix] + x_breaks[ix + 1])
        for iy in range(len(y_breaks) - 1):
            Y0, Y1, Y2, Y20 = y_cells[iy]
            ym = 0.5 * (y_breaks[iy] + y_breaks[iy + 1])
            cover = next((k for k, p in enumerate(patches)
                          if p.x1 <= xm < p.x2 and p.y1 <= ym < p.y2), None)
            if cover is None:
                m_c = m_bare
                A11 = A22 = Ds
                A12 = plate.poisson_nus * Ds
                A66 = 2.0 * (1.0 - plate.poisson_nus) * Ds
            else:
                p, r = patches[cover], rig[cover]
                m_c = m_bare + p.density_rhop * p.thickness_hp
                A11 = A22 = r.Dsp + r.D11p
                A12 = plate.poisson_nus * r.Dsp + r.D12p
                A66 = 2.0 * (1.0 - plate.poisson_nus) * r.Dsp + 4.0 * r.D66p
            M4 += m_c * np.einsum("ik,jl->ijkl", X0, Y0)
            K4 += A11 * np.einsum("ik,jl->ijkl", X2, Y0)
            K4 += A22 * np.einsum("ik,jl->ijkl", X0, Y2)
            K4 += A12 * (np.einsum("ik,lj->ijkl", X20, Y20)
                         + np.einsum("ki,jl->ijkl", X20, Y20))
            K4 += A66 * np.einsum("ik,jl->ijkl", X1, Y1)

    n = nx * ny
    M = M4.reshape(n, n)
    K = K4.reshape(n, n)
    return 0.5 * (M + M.T), 0.5 * (K + K.T)


def static_ritz_displacement(plate, patches, spec, force, target):
    """Static deflection per newton at the target from a direct stiffness solve."""
    from platedamp import basis as bb
    from platedamp.ritz import assemble_system
    _, K = assemble_system(plate, patches, spec)
    bx0 = bb.eval_matrix(spec.n_x, plate.length_a, [force.x])[0]
    by0 = bb.eval_matrix(spec.n_y, plate.width_b, [force.y])[0]
    f = force.amplitude * np.outer(bx0, by0).reshape(-1)
    coeffs = np.linalg.solve(K, f)
    bxt = bb.eval_matrix(spec.n_x, plate.length_a, [target[0]])[0]
    byt = bb.eval_matrix(spec.n_y, plate.width_b, [target[1]])[0]
    return (np.outer(bxt, byt).reshape(-1) @ coeffs) / force.amplitude


def neutral_axis_by_stress_balance(plate, patch):
    """Root of the through-thickness force balance, found numerically.

    Under pure bending with curvature kappa the axial stress is
    modulus(z) * kappa * (z - z0); the neutral offset makes the net
    in-plane force vanish. Uses adaptive quadrature plus bracketing,
    sharing no algebra with the closed-form production formula.
    """
    hs, hp = plate.thickness_hs, patch.thickness_hp
    host_mod = plate.youngs_Ys / (1.0 - plate.poisson_nus**2)

    def net_force(z0):
        host = quad(lambda z: host_mod * (z - z0), -hs / 2.0, hs / 2.0)[0]
        piezo = quad(lambda z: patch.c11_bar * (z - z0), hs / 2.0, hs / 2.0 + hp)[0]
        return host + piezo

    return brentq(net_force, 0.0, (hs + hp) / 2.0, xtol=1e-18, rtol=8.9e-16)


def layer_rigidity_by_quadrature(modulus, z_lo, z_hi):
    """Second moment of one layer about z = 0, scaled by its modulus."""
    return modulus * quad(lambda z: z * z, z_lo, z_hi)[0]


def beam_mode_mp(index, length, xs, order=0, dps=None):
    """Clamped-clamped beam mode via the textbook formula in mpmath.

    Arbitrary precision sidesteps the catastrophic cancellation that
    makes the textbook formula useless in double precision for large
    mode numbers. The cancellation consumes about 0.44 * lam decimal
    digits, so the working precision grows with the mode index.
    """
    import mpmath as mp
    if dps is None:
        dps = 40 + int(0.5 * (index + 0.5) * np.pi)
    mp.mp.dps = dps
    # scaled characteristic equation keeps the residual O(1) at large roots
    lam = mp.findroot(lambda t: mp.cos(t) - 1 / mp.cosh(t), (index + 0.5) * mp.pi)
    sigma = (mp.cosh(lam) - mp.cos(lam)) / (mp.sinh(lam) - mp.sin(lam))
    beta = lam / length

    def f(x):
        t = beta * x
        if order == 0:
            val = mp.cosh(t) - mp.cos(t) - sigma * (mp.sinh(t) - mp.sin(t))
            return val
        if order == 1:
            return beta * (mp.sinh(t) + mp.sin(t) - sigma * (mp.cosh(t) - mp.cos(t)))
        return beta**2 * (mp.cosh(t) + mp.cos(t) - sigma * (mp.sinh(t) + mp.sin(t)))

    return np.array([float(f(x)) for x in np.atleast_1d(xs)])
