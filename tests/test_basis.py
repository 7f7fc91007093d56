import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from platedamp import basis

from oracles import beam_mode_mp

L = 0.54


class TestEigenvalues:
    def test_first_roots(self):
        # classical clamped-clamped beam eigenvalues
        known = [4.730040744862704, 7.853204624095838, 10.995607838001671]
        for i, lam in enumerate(known, start=1):
            assert basis.eigenvalue(i) == pytest.approx(lam, rel=1e-12)

    def test_asymptotic_spacing(self):
        for i in (20, 45, 90):
            assert basis.eigenvalue(i) == pytest.approx((i + 0.5) * np.pi, rel=1e-6)

    def test_rounded_to_nearest_against_mpmath(self):
        with mp.workdps(50):
            for i in range(1, 61):
                ours = basis.eigenvalue(i)
                root = mp.findroot(lambda x: mp.cos(x) - 1 / mp.cosh(x), (i + 0.5) * mp.pi)
                assert abs(mp.mpf(ours) - root) <= 0.5 * np.spacing(ours), i

    def test_index_starts_at_one(self):
        with pytest.raises(ValueError):
            basis.eigenvalue(0)


class TestClampedEnds:
    @pytest.mark.parametrize("i", [1, 2, 5, 12, 30, 80])
    def test_deflection_and_slope_vanish_at_both_ends(self, i):
        scale = basis.eigenvalue(i) / L
        for order, tol in ((0, 1e-11), (1, 1e-11 * scale)):
            vals = basis.eval_matrix(i, L, [0.0, L], order)[:, -1]
            assert np.all(np.abs(vals) < tol)

    def test_unsupported_derivative_order(self):
        with pytest.raises(ValueError, match="unsupported"):
            basis.eval_matrix(1, L, [0.1], 3)
        with pytest.raises(ValueError, match="unsupported"):
            basis.eval_matrix(3, L, [0.1], (0, -1))

    def test_coordinate_outside_span(self):
        """The guard fails closed on NaN, and bounds the integral too."""
        for call in (lambda: basis.eval_matrix(1, L, -0.01),
                     lambda: basis.eval_matrix(1, L, np.nan),
                     lambda: basis.eval_matrix(4, L, [0.1, np.nan], (0, 2)),
                     lambda: basis.integral(2, 1.0, -5.0, 7.0),
                     lambda: basis.integral(2, L, 0.1, np.nan)):
            with pytest.raises(ValueError, match="outside"):
                call()


class TestEvalMatrix:
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_columns_are_the_single_mode_functions(self, order):
        """Function i of the (points, functions) evaluation equals the
        last column of the evaluation of the first i functions, bit for
        bit, ends of the span included."""
        x = np.linspace(0.0, L, 97)
        B = basis.eval_matrix(30, L, x, order)
        assert B.shape == (x.size, 30)
        loop = np.column_stack([basis.eval_matrix(i, L, x, order)[:, -1] for i in range(1, 31)])
        assert np.array_equal(B, loop)

    def test_stacked_orders_equal_one_order_at_a_time(self):
        x = np.linspace(0.0, L, 97)
        stacked = basis.eval_matrix(30, L, x, (2, 0, 1))
        assert stacked.shape == (3, x.size, 30)
        for row, order in zip(stacked, (2, 0, 1)):
            assert np.array_equal(row, basis.eval_matrix(30, L, x, order))


class TestNormalization:
    def test_gram_matrix_is_length_times_identity(self):
        """High-order quadrature oracle for the first 8 modes."""
        nodes, wts = leggauss(600)
        x = 0.5 * L * (nodes + 1.0)
        w = 0.5 * L * wts
        B = basis.eval_matrix(8, L, x)
        gram = (B * w[:, None]).T @ B
        assert np.max(np.abs(gram - L * np.eye(8))) < 1e-10 * L

    @pytest.mark.parametrize("i", [15, 40])
    def test_high_modes_stay_normalized_and_bounded(self, i):
        nodes, wts = leggauss(40 * i)
        x = 0.5 * L * (nodes + 1.0)
        w = 0.5 * L * wts
        phi = basis.eval_matrix(i, L, x)[:, -1]
        assert np.max(np.abs(phi)) < 2.1
        assert np.sum(w * phi * phi) == pytest.approx(L, rel=1e-9)


class TestAgainstArbitraryPrecision:
    @pytest.mark.parametrize("i", [1, 4, 8, 14, 25, 40])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_matches_mpmath_reference(self, i, order):
        xs = np.linspace(0.0, L, 17)
        ours = basis.eval_matrix(i, L, xs, order)[:, -1]
        ref = beam_mode_mp(i, L, xs, order)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(ours - ref)) < 1e-11 * scale


class TestIntegral:
    @pytest.mark.parametrize("i,lo,hi", [
        (1, 0.0, L), (2, 0.1, 0.31), (7, 0.2238, 0.2962), (13, 0.0, 0.07),
    ])
    def test_matches_adaptive_quadrature(self, i, lo, hi):
        ana = basis.integral(i, L, lo, hi)[-1]
        num = quad(lambda t: basis.eval_matrix(i, L, t)[0, -1], lo, hi, limit=400)[0]
        assert ana == pytest.approx(num, abs=1e-12 * L)

    def test_sequence_of_indices_equals_one_index_at_a_time(self):
        """Integral i of the first 30 equals the last integral of the
        first i, bit for bit."""
        ints = basis.integral(30, L, 0.2238, 0.2962)
        assert ints.shape == (30,)
        assert np.array_equal(ints, [basis.integral(i, L, 0.2238, 0.2962)[-1]
                                     for i in range(1, 31)])

    def test_arrays_of_interval_ends_equal_one_interval_at_a_time(self):
        """Arrays of ends give each interval's integrals, bit for bit, on
        a trailing axis."""
        lo = np.array([[0.0, 0.1, 0.2238], [0.05, 0.3, 0.0]])
        hi = np.array([[L, 0.31, 0.2962], [0.07, 0.3, 0.4]])
        ints = basis.integral(12, L, lo, hi)
        assert ints.shape == (2, 3, 12)
        for i, j in np.ndindex(lo.shape):
            assert np.array_equal(ints[i, j], basis.integral(12, L, lo[i, j], hi[i, j]))
