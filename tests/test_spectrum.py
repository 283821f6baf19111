import gc
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from markovgibbs import (
    GibbsChain,
    Potential,
    PreconditionError,
    SolverError,
    TransitionMatrix,
    char_poly,
    char_poly_family_equal,
    ks_entropy,
    normalize,
    perron,
    pressure,
    pressure_derivative,
    q_power,
    spectral_twin_chain,
    spectrum_curve,
    spectrum_point,
    topological_entropy,
)

from conftest import FIXTURE_VALUES, SINGULAR_NEWTON_LOG_VALUES, random_chain, random_primitive_matrix


@pytest.fixture
def uniform_full2(full2):
    chain, _ = normalize(Potential.constant(full2, 0.0))
    return chain


class TestQPower:
    def test_power_one_is_the_chain(self, fixture_chain):
        assert np.array_equal(q_power(fixture_chain, 1.0), fixture_chain.q)

    def test_power_zero_is_the_matrix(self, fixture_chain, four_matrix):
        assert np.array_equal(q_power(fixture_chain, 0.0), four_matrix.entries.astype(float))

    def test_uniform_square(self, uniform_full2):
        assert np.allclose(q_power(uniform_full2, 2.0), 0.25)

    def test_negative_powers_keep_zeros(self, fixture_chain):
        powered = q_power(fixture_chain, -3.0)
        assert powered[0, 0] == 0.0
        assert powered[2, 1] == pytest.approx(0.3 ** -3)


class TestPressure:
    def test_zero_at_one(self, fixture_chain):
        assert abs(pressure(fixture_chain, 1.0)) <= 1e-12

    def test_topological_entropy_at_zero(self, fixture_chain, four_matrix):
        assert pressure(fixture_chain, 0.0) == pytest.approx(
            topological_entropy(four_matrix), abs=1e-10
        )

    def test_uniform_full_shift_is_linear(self, uniform_full2):
        for q in (-2.0, -0.5, 0.0, 1.0, 2.5):
            assert pressure(uniform_full2, q) == pytest.approx(
                (1 - q) * math.log(2), abs=1e-12
            )


class TestTopologicalEntropy:
    def test_value_is_not_held_past_the_matrix(self):
        # the value is cached on the matrix itself, so no process-wide cache
        # keeps a matrix alive after its last use
        matrix = TransitionMatrix([[0, 1], [1, 1]])
        golden = math.log((1 + math.sqrt(5)) / 2)
        assert topological_entropy(matrix) == pytest.approx(golden, abs=1e-14)
        assert topological_entropy(matrix) == topological_entropy(matrix)
        ref = weakref.ref(matrix)
        del matrix
        gc.collect()
        assert ref() is None


class TestPressureDerivative:
    def test_uniform_full_shift(self, uniform_full2):
        for q in (-1.0, 0.0, 2.0):
            assert pressure_derivative(uniform_full2, q) == pytest.approx(
                -math.log(2), abs=1e-12
            )

    def test_slope_at_one_is_minus_entropy(self, fixture_chain):
        assert pressure_derivative(fixture_chain, 1.0) == pytest.approx(
            -ks_entropy(fixture_chain), abs=1e-8
        )

    def test_matches_central_differences(self, fixture_chain):
        step = 1e-5
        for q in np.linspace(-3.0, 3.0, 25):
            oracle = (pressure(fixture_chain, q + step) - pressure(fixture_chain, q - step)) / (
                2 * step
            )
            assert pressure_derivative(fixture_chain, float(q)) == pytest.approx(
                oracle, abs=1e-6
            )


class TestSpectrumPoint:
    def test_diagonal_touch_at_one(self, fixture_chain):
        alpha, entropy = spectrum_point(fixture_chain, 1.0)
        h = ks_entropy(fixture_chain)
        assert alpha == pytest.approx(h, abs=1e-8)
        assert entropy == pytest.approx(h, abs=1e-8)

    def test_maximum_at_zero(self, fixture_chain, four_matrix):
        _, entropy = spectrum_point(fixture_chain, 0.0)
        assert entropy == pytest.approx(topological_entropy(four_matrix), abs=1e-10)

    def test_uniform_full_shift_degenerate(self, uniform_full2):
        for q in (-2.0, 0.0, 3.0):
            alpha, entropy = spectrum_point(uniform_full2, q)
            assert alpha == pytest.approx(math.log(2), abs=1e-11)
            assert entropy == pytest.approx(math.log(2), abs=1e-11)


class TestSpectrumCurve:
    def test_uniform_full_shift_constant_curve(self, uniform_full2):
        curve = spectrum_curve(uniform_full2, -2.0, 2.0, 9)
        assert np.allclose(curve.alphas, math.log(2), atol=1e-11)
        assert np.allclose(curve.entropies, math.log(2), atol=1e-11)

    def test_fixture_concave_with_peak_at_zero(self, fixture_chain, four_matrix):
        curve = spectrum_curve(fixture_chain, -3.0, 3.0, 25)
        betas = curve.entropies - curve.qs * curve.alphas
        assert (np.diff(betas, 2) >= -1e-9).all()
        peak = int(np.argmax(curve.entropies))
        assert curve.qs[peak] == pytest.approx(0.0)
        assert curve.entropies[peak] == pytest.approx(
            topological_entropy(four_matrix), abs=1e-8
        )
        assert (np.diff(curve.alphas) <= 1e-9).all()

    def test_twin_pair_curves_agree(self, fixture_chain):
        twin = spectral_twin_chain(fixture_chain)
        curve_f = spectrum_curve(fixture_chain, -3.0, 3.0, 25)
        curve_g = spectrum_curve(twin, -3.0, 3.0, 25)
        assert np.abs(curve_f.alphas - curve_g.alphas).max() < 1e-8
        assert np.abs(curve_f.entropies - curve_g.entropies).max() < 1e-8

    def test_rejects_bad_grid(self, fixture_chain):
        with pytest.raises(PreconditionError):
            spectrum_curve(fixture_chain, 1.0, -1.0, 5)
        with pytest.raises(PreconditionError):
            spectrum_curve(fixture_chain, -1.0, 1.0, 1)

    def test_singular_newton_step_is_a_solver_error(self):
        base = TransitionMatrix([[int(v is not None) for v in row] for row in SINGULAR_NEWTON_LOG_VALUES])
        chain, _ = normalize(Potential.from_matrix(base, SINGULAR_NEWTON_LOG_VALUES))
        with pytest.raises(SolverError, match="stack member 0: Newton step failed: Singular matrix"):
            spectrum_curve(chain, -20.0, 20.0, 41)


class TestCharPoly:
    def test_identity(self):
        assert char_poly([[1, 0], [0, 1]]) == [1, -2, 1]

    def test_full_shift(self, full2):
        coeffs = char_poly(full2.entries.astype(float))
        assert np.allclose(coeffs, [1.0, -2.0, 0.0], atol=1e-14)

    def test_four_symbol_matrix_exact(self, four_matrix):
        coeffs = char_poly([[int(x) for x in row] for row in four_matrix.entries])
        assert coeffs == [1, 0, -2, -2, 0]
        # oracle: numpy eigenvalues reproduce the same polynomial
        numeric = np.poly(np.linalg.eigvals(four_matrix.entries.astype(float)))
        assert np.allclose([float(c) for c in coeffs], numeric, atol=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(PreconditionError):
            char_poly([[1, 2, 3], [4, 5, 6]])


class TestCharPolyFamilyEqual:
    def test_chain_against_itself(self, fixture_chain):
        equal, deviation = char_poly_family_equal(fixture_chain, fixture_chain)
        assert equal and deviation == 0.0

    def test_twin_pair_numeric(self, fixture_chain):
        equal, deviation = char_poly_family_equal(fixture_chain, spectral_twin_chain(fixture_chain))
        assert equal
        assert deviation <= 1e-10

    def test_twin_pair_exact(self, four_matrix):
        exact_values = {
            (2, 1): Fraction(1),
            (1, 3): Fraction(1),
            (1, 2): Fraction(1, 5),
            (3, 2): Fraction(3, 10),
            (4, 2): Fraction(1, 2),
            (1, 4): Fraction(2, 5),
            (2, 4): Fraction(3, 5),
        }
        chain = GibbsChain.from_stochastic(four_matrix, exact_values)
        twin = spectral_twin_chain(chain)
        assert char_poly_family_equal(chain, twin) == (True, 0.0)

    def test_perturbed_entry_detected(self, four_matrix, fixture_chain):
        perturbed = dict(FIXTURE_VALUES)
        perturbed[(3, 2)] = 0.31
        perturbed[(1, 2)] = 0.19
        other = GibbsChain.from_stochastic(four_matrix, perturbed)
        equal, deviation = char_poly_family_equal(fixture_chain, other)
        assert not equal
        assert deviation > 1e-10

    def test_relabeled_chain_has_equal_family(self, full2):
        chain = GibbsChain.from_stochastic(
            full2, {(1, 1): 0.3, (2, 1): 0.7, (1, 2): 0.6, (2, 2): 0.4}
        )
        relabeled = GibbsChain.from_stochastic(
            full2, {(1, 1): 0.4, (2, 1): 0.6, (1, 2): 0.7, (2, 2): 0.3}
        )
        equal, _ = char_poly_family_equal(chain, relabeled)
        assert equal

    def test_alphabet_size_mismatch(self, fixture_chain, uniform_full2):
        with pytest.raises(PreconditionError):
            char_poly_family_equal(fixture_chain, uniform_full2)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf])
    def test_rejects_invalid_tolerance_in_both_modes(self, four_matrix, fixture_chain, tol):
        exact = GibbsChain.from_stochastic(four_matrix, {e: Fraction(v).limit_denominator() for e, v in FIXTURE_VALUES.items()})
        for chain in (fixture_chain, exact):
            with pytest.raises(PreconditionError, match="finite and non-negative"):
                char_poly_family_equal(chain, chain, tol=tol)

    def test_zero_tolerance_is_valid(self, fixture_chain):
        assert char_poly_family_equal(fixture_chain, fixture_chain, tol=0.0) == (True, 0.0)

    def test_exact_comparison_against_integer_grid_oracle(self, four_matrix):
        # independent oracle: at integer powers rational arithmetic is closed,
        # so the characteristic polynomial of the powered matrix is exact; the
        # coefficient functions here have few enough terms that disagreement
        # anywhere forces disagreement at some integer in [-3, 3]
        def exact_grid_equal(ca, cb):
            return all(
                char_poly(_exact_power(ca, q)) == char_poly(_exact_power(cb, q))
                for q in range(-3, 4)
            )

        rng = np.random.default_rng(31)
        for _ in range(20):
            p1, p2 = sorted(rng.integers(1, 31, size=2))
            if p1 == p2:
                continue
            a1, a2 = Fraction(int(p1), 32), Fraction(int(p2 - p1), 32)
            a3 = 1 - a1 - a2
            b1 = Fraction(int(rng.integers(1, 32)), 32)
            if a2 == 0 or a3 <= 0 or a2 == a3 * b1:
                continue
            values = {
                (2, 1): Fraction(1),
                (1, 3): Fraction(1),
                (1, 2): a1,
                (3, 2): a2,
                (4, 2): a3,
                (1, 4): b1,
                (2, 4): 1 - b1,
            }
            chain = GibbsChain.from_stochastic(four_matrix, values)
            twin = spectral_twin_chain(chain)
            equal, _ = char_poly_family_equal(chain, twin)
            assert equal == exact_grid_equal(chain, twin) == True  # noqa: E712
            # negative case: nudging one column entry breaks the family
            shuffled = dict(values)
            shift = Fraction(1, 64) if a1 > Fraction(1, 32) else -Fraction(1, 64)
            shuffled[(1, 2)] = a1 - shift
            shuffled[(3, 2)] = a2 + shift
            other = GibbsChain.from_stochastic(four_matrix, shuffled)
            equal, _ = char_poly_family_equal(chain, other)
            assert equal == exact_grid_equal(chain, other) == False  # noqa: E712


def _exact_power(chain, q):
    grid = [[Fraction(0)] * chain.n for _ in range(chain.n)]
    for (i, j), v in chain.exact.items():
        grid[i - 1][j - 1] = v**q
    return grid


def _char_poly_by_lists(matrix, number=Fraction):
    """Reference: the same recursion on lists of ``number``, one entry at a time."""
    m = [[number(x) for x in row] for row in matrix]
    n = len(m)
    coeffs = [number(1)]
    work = [row[:] for row in m]
    for k in range(1, n + 1):
        ck = -sum(work[i][i] for i in range(n)) / k
        coeffs.append(ck)
        shifted = [[work[i][j] + (ck if i == j else 0) for j in range(n)] for i in range(n)]
        work = [
            [sum(m[i][l] * shifted[l][j] for l in range(n)) for j in range(n)] for i in range(n)
        ]
    return coeffs


class TestGeneratedFamilies:
    """Oracles over q-powered chains on random primitive bases (seeded rng)."""

    @pytest.mark.parametrize("n", (4, 6, 8, 12, 16))
    def test_perron_contract_along_the_family(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(8):
            chain = random_chain(rng, random_primitive_matrix(rng, n))
            for q in (-3.0, 0.0, 1.0, 3.0):
                m = q_power(chain, q)
                data = perron(m)
                u, v = data.left, data.right / data.right.sum()
                assert u.min() > 0 and v.min() > 0
                assert u.sum() == pytest.approx(1.0, abs=1e-12)
                assert u @ data.right == pytest.approx(1.0, abs=1e-12)
                left_res = np.abs(u @ m - data.root * u).max()
                right_res = np.abs(m @ v - data.root * v).max()
                assert max(left_res, right_res) <= 1e-12 * data.root
                assert 0 <= data.residual <= 1e-12
                # primitive: the root strictly dominates the rest of the spectrum
                moduli = np.sort(np.abs(np.linalg.eigvals(m)))
                assert data.root == pytest.approx(moduli[-1], rel=1e-10)
                assert data.gap == pytest.approx(1 - moduli[-2] / moduli[-1], abs=1e-8)
                assert data.gap > 0
            assert abs(pressure(chain, 1.0)) <= 1e-12
            h_top = math.log(np.abs(np.linalg.eigvals(chain.base.entries.astype(float))).max())
            assert pressure(chain, 0.0) == pytest.approx(h_top, abs=1e-12)
            assert topological_entropy(chain.base) == pytest.approx(h_top, abs=1e-12)

    @pytest.mark.parametrize("n", (4, 6, 8, 12, 16))
    def test_curve_agrees_with_its_points(self, n):
        # the curve solves its grid in stacked blocks; spectrum_point and
        # pressure_derivative solve one q at a time, and pressure takes the
        # single-matrix perron path; 150 points span more than one block
        rng = np.random.default_rng(300 + n)
        for steps in (25, 25, 150):
            chain = random_chain(rng, random_primitive_matrix(rng, n))
            curve = spectrum_curve(chain, -3.0, 3.0, steps)
            points = np.array([spectrum_point(chain, float(q)) for q in curve.qs])
            assert np.abs(curve.alphas - points[:, 0]).max() <= 1e-10
            assert np.abs(curve.entropies - points[:, 1]).max() <= 1e-10
            slopes = np.array([pressure_derivative(chain, float(q)) for q in curve.qs])
            assert np.abs(slopes + curve.alphas).max() <= 1e-10
            betas = np.array([pressure(chain, float(q)) for q in curve.qs])
            assert np.abs(curve.entropies - curve.qs * curve.alphas - betas).max() <= 1e-10

    def test_large_grid_memory_is_bounded(self):
        rng = np.random.default_rng(416)
        chain = random_chain(rng, random_primitive_matrix(rng, 16))
        spectrum_curve(chain, -3.0, 3.0, 2)
        tracemalloc.start()
        try:
            spectrum_curve(chain, -3.0, 3.0, 4000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000

    @pytest.mark.parametrize("n", (2, 4, 6, 8))
    def test_float_char_poly_matches_oracles(self, n):
        # deviation relative to the largest coefficient; at q = -3 the
        # entries span up to ~1e9 and every route loses digits, up to ~1e-9
        rng = np.random.default_rng(200 + n)
        for _ in range(10):
            chain = random_chain(rng, random_primitive_matrix(rng, n))
            for q in (-3.0, 0.0, 1.0, 3.0):
                m = q_power(chain, q)
                coeffs = char_poly(m)
                assert all(type(c) is float for c in coeffs)
                ours = np.array(coeffs)
                by_eigenvalues = np.poly(np.linalg.eigvals(m)).real
                for oracle in (by_eigenvalues, np.array(_char_poly_by_lists(m, float))):
                    scale = max(1.0, np.abs(ours).max(), np.abs(oracle).max())
                    assert np.abs(ours - oracle).max() <= 1e-8 * scale

    def test_exact_char_poly_matches_list_recursion(self, four_matrix):
        exact_values = {e: Fraction(str(v)) for e, v in FIXTURE_VALUES.items()}
        chain = GibbsChain.from_stochastic(four_matrix, exact_values)
        matrices = [[[int(x) for x in row] for row in four_matrix.entries]]
        for c in (chain, spectral_twin_chain(chain)):
            matrices += [_exact_power(c, q) for q in range(-3, 4)]
        for matrix in matrices:
            coeffs = char_poly(matrix)
            assert coeffs == _char_poly_by_lists(matrix)
            assert all(type(c) is Fraction for c in coeffs)
