import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from markovgibbs import (
    GibbsChain,
    Potential,
    PreconditionError,
    SolverError,
    TransitionMatrix,
    chains_cohomologous,
    cohomologous_with_constant,
    cycle_sum,
    cylinder_measure,
    gibbs_ratio_bounds,
    ks_entropy,
    normalize,
    perron,
    structure,
    weight_matrix,
)
from markovgibbs.gibbs import EXACT, NUMERICAL, Comparison, _linalg, _stationary
from markovgibbs.shiftcore import _word_rows

import reference
from conftest import (
    FIXTURE_VALUES,
    primitive_bases,
    random_chain,
    random_potential,
    random_primitive_matrix,
)

# Words, all lengths together, that the word-enumerating reference ratio bounds may visit per example.
RATIO_WORD_BUDGET = 10_000


@st.composite
def primitive_stacks(draw):
    """Stacks of ``k`` primitive matrices at one size ``n``, positive on their edges.

    Every member carries the cycle ``1 -> 2 -> ... -> n -> 1`` and a loop at
    1 (irreducible and aperiodic, so primitive) plus any drawn extra edges.
    """
    n = draw(st.integers(2, 16))
    k = draw(st.integers(1, 5))
    edges = draw(hnp.arrays(bool, (k, n, n))) | np.roll(np.eye(n, dtype=bool), 1, axis=1)
    edges[:, 0, 0] = True
    logs = draw(hnp.arrays(float, (k, n, n), elements=st.floats(-4.0, 4.0)))
    return np.where(edges, np.exp(logs), 0.0)


@st.composite
def ratio_cases(draw):
    """A potential from U[-4, 4] on a primitive base of 2 to 6 symbols, a depth and a pressure.

    The depth runs from 1 to 7, or to the last length that keeps the word
    count within ``RATIO_WORD_BUDGET``.  A pressure of None stands for the
    chain's own, the log of the Perron root.
    """
    matrix = draw(primitive_bases(max_n=6))
    values = draw(st.lists(st.floats(-4.0, 4.0), min_size=len(matrix.edges), max_size=len(matrix.edges)))
    counts = np.cumsum([np.linalg.matrix_power(matrix.entries, k).sum() for k in range(7)])
    max_len = draw(st.integers(1, int((counts <= RATIO_WORD_BUDGET).sum())))
    pressure = draw(st.one_of(st.none(), st.floats(-3.0, 3.0)))
    return Potential(matrix, dict(zip(matrix.edges, values))), max_len, pressure


def random_wide_potential(rng, matrix):
    return Potential(matrix, {e: rng.uniform(-4.0, 4.0) for e in matrix.edges})


class TestPotential:
    def test_requires_exact_edge_support(self, golden_mean):
        with pytest.raises(PreconditionError):
            Potential(golden_mean, {(1, 2): 0.0, (2, 1): 0.0})  # (2, 2) missing
        with pytest.raises(PreconditionError):
            Potential(golden_mean, {(1, 2): 0.0, (2, 1): 0.0, (2, 2): 0.0, (1, 1): 0.0})

    def test_rejects_non_finite(self, golden_mean):
        with pytest.raises(PreconditionError):
            Potential(golden_mean, {(1, 2): 0.0, (2, 1): math.inf, (2, 2): 0.0})

    def test_from_matrix(self, golden_mean):
        pot = Potential.from_matrix(golden_mean, [[None, 0.5], [-0.5, 1.5]])
        assert pot[(1, 2)] == 0.5 and pot[(2, 2)] == 1.5


class TestWeightMatrix:
    def test_zero_potential_recovers_matrix(self, four_matrix):
        pot = Potential.constant(four_matrix, 0.0)
        assert np.array_equal(weight_matrix(pot), four_matrix.entries.astype(float))

    def test_log_of_stochastic_recovers_it(self, fixture_chain):
        pot = fixture_chain.normalized_potential()
        assert np.allclose(weight_matrix(pot), fixture_chain.q, atol=1e-15)

    def test_constant_half(self, full2):
        pot = Potential.constant(full2, math.log(0.5))
        assert np.allclose(weight_matrix(pot), np.full((2, 2), 0.5))


class TestPerron:
    def test_linalg_failure_names_the_first_failing_member(self):
        def solve(stack):
            if (stack[:, 0, 0] < 0).any():
                raise np.linalg.LinAlgError("synthetic")
            return stack

        stack = np.ones((4, 1, 1))
        stack[3] = -1.0  # the transpose of member 1
        with pytest.raises(SolverError, match="^stack member 1: eigensolve failed: synthetic$"):
            _linalg(solve, "eigensolve", 2, True, stack)
        with pytest.raises(SolverError, match="^eigensolve failed: synthetic$"):
            _linalg(solve, "eigensolve", 1, False, stack[2:])
        assert _linalg(solve, "eigensolve", 2, True, np.ones((4, 1, 1))).shape == (4, 1, 1)

    def test_full_shift(self, full2):
        data = perron(full2.entries)
        assert data.root == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(data.left, [0.5, 0.5], atol=1e-12)

    def test_column_stochastic_root_is_one(self, fixture_chain):
        data = perron(fixture_chain.q)
        assert data.root == pytest.approx(1.0, abs=1e-12)

    def test_root_matches_characteristic_polynomial(self, four_matrix):
        # independent oracle: largest real eigenvalue from numpy's eigensolver
        eigenvalues = np.linalg.eigvals(four_matrix.entries.astype(float))
        largest = max(ev.real for ev in eigenvalues if abs(ev.imag) < 1e-9)
        assert perron(four_matrix.entries).root == pytest.approx(largest, abs=1e-10)

    def test_residual_postcondition_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            matrix = random_primitive_matrix(rng, int(rng.integers(2, 7)))
            m = weight_matrix(random_potential(rng, matrix))
            data = perron(m)
            assert np.abs(data.left @ m - data.root * data.left).max() <= 1e-12 * data.root
            assert np.abs(m @ data.right - data.root * data.right).max() <= 1e-12 * data.root
            assert data.left.sum() == pytest.approx(1.0, abs=1e-12)
            assert data.left @ data.right == pytest.approx(1.0, abs=1e-12)

    def test_graded_matrix_meets_residual_contract(self):
        # q = 3 power of a random n = 6 chain, entries from 1e-8 to 1: the
        # left eigenvector read straight from np.linalg.eig has a residual of
        # about 2e-12 of the root here, above the 1e-12 contract
        m = np.array(
            [
                [0.0, 0.0008172741461702368, 0.0, 0.6975092908702478, 0.0, 0.002846689859113479],
                [0.0, 0.0, 0.0, 0.0, 8.856438936220983e-05, 0.0],
                [0.0, 0.0, 0.0, 0.001448664125957086, 1.250629641013992e-08, 0.0],
                [0.0, 1.7057756322498014e-06, 1.0, 0.0, 4.3112798934481494e-08, 1.2231152375397232e-04],
                [0.0, 0.45514268099711264, 0.0, 0.0, 0.8562866876997051, 0.5287607223543509],
                [1.0, 0.0019690551983584737, 0.0, 0.0, 0.0, 0.0],
            ]
        )
        data = perron(m)
        u, v = data.left, data.right / data.right.sum()
        assert np.abs(u @ m - data.root * u).max() <= 1e-12 * data.root
        assert np.abs(m @ v - data.root * v).max() <= 1e-12 * data.root
        assert data.residual <= 1e-12

    def test_periodic_matrix_still_resolves_spectral_radius(self):
        # eigenvalues +-sqrt(2); the dominant root is taken by largest real
        # part, not modulus, so the positive eigenpair comes out correctly
        data = perron([[0.0, 2.0], [1.0, 0.0]])
        assert data.root == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(PreconditionError):
            perron([[1.0, -1.0], [1.0, 1.0]])
        with pytest.raises(PreconditionError):
            perron([[1.0, 0.0], [1.0, 0.0]])

    @pytest.mark.parametrize(
        "matrix, reason",
        [
            ([[1.0, 1.0], [0.0, 1.0]], "not simple"),
            ([[2.0, 0.0], [0.0, 1.0]], "not strictly positive"),
            ([[1.0, 0.0], [0.0, 1.0]], "not simple"),
        ],
        ids=["jordan_block", "reducible_diagonal", "identity"],
    )
    def test_reducible_matrices_raise_fast(self, matrix, reason):
        start = time.perf_counter()
        with pytest.raises(SolverError, match=reason):
            perron(matrix)
        assert time.perf_counter() - start < 0.5

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(primitive_stacks())
    def test_stack_agrees_with_single_solves(self, stack):
        data = perron(stack)
        k = len(stack)
        assert data.root.shape == data.residual.shape == data.gap.shape == (k,)
        assert data.left.shape == data.right.shape == stack.shape[:2]
        for i in range(k):
            single = perron(stack[i])
            assert type(single.root) is float and type(single.residual) is float
            assert single.left.ndim == 1 and not single.left.flags.writeable
            assert data.root[i] == pytest.approx(single.root, rel=1e-12, abs=0)
            assert np.abs(data.left[i] - single.left).max() <= 1e-10
            assert np.abs(data.right[i] - single.right).max() <= 1e-10
            assert data.residual[i] <= 1e-12
            assert data.gap[i] == pytest.approx(single.gap, abs=1e-10)

    def test_stack_with_a_reducible_member_raises(self):
        stack = np.array([[[1.0, 2.0], [3.0, 1.0]], [[1.0, 1.0], [0.0, 1.0]]])
        with pytest.raises(SolverError, match="stack member 1: .*not simple"):
            perron(stack)
        assert perron(stack[:1]).root == pytest.approx([1 + math.sqrt(6)], abs=1e-12)

    def test_diagnostics(self, full2, golden_mean):
        assert perron(full2.entries).gap == pytest.approx(1.0, abs=1e-12)
        golden = perron(golden_mean.entries)
        phi = (1 + math.sqrt(5)) / 2
        assert golden.gap == pytest.approx(1 - 1 / phi**2, abs=1e-12)
        assert 0 <= golden.residual <= 1e-12
        assert perron([[0.0, 2.0], [1.0, 0.0]]).gap == pytest.approx(0.0, abs=1e-12)
        assert perron([[3.0]]).gap == 1.0


class TestNormalize:
    def test_uniform_full_shift(self, full2):
        chain, data = normalize(Potential.constant(full2, 0.0))
        assert np.allclose(chain.q, 0.5, atol=1e-13)
        assert np.allclose(chain.pi, 0.5, atol=1e-13)
        assert data.root == pytest.approx(2.0, abs=1e-12)

    def test_fixture_example(self, four_matrix, fixture_chain):
        pot = Potential(four_matrix, {e: math.log(v) for e, v in FIXTURE_VALUES.items()})
        chain, data = normalize(pot)
        assert data.root == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(data.left, 0.25, atol=1e-12)
        assert np.abs(chain.q - fixture_chain.q).max() < 1e-12
        # oracle: stationary vector from a dense linear solve
        system = np.vstack([(fixture_chain.q - np.eye(4))[:3], np.ones(4)])
        oracle = np.linalg.solve(system, [0.0, 0.0, 0.0, 1.0])
        assert np.allclose(chain.pi, oracle, atol=1e-12)
        assert np.allclose(chain.pi, [0.28, 0.4, 0.12, 0.2], atol=1e-12)

    def test_constant_shift_leaves_chain(self, four_matrix):
        rng = np.random.default_rng(1)
        pot = random_potential(rng, four_matrix)
        shifted = Potential(four_matrix, {e: v + 0.7 for e, v in pot.values.items()})
        chain_a, _ = normalize(pot)
        chain_b, _ = normalize(shifted)
        assert np.abs(chain_a.q - chain_b.q).max() < 1e-12

    @pytest.mark.parametrize("shift", [800.0, -800.0, 50.0, -50.0])
    def test_constant_shift_of_any_size(self, four_matrix, shift):
        # exp(800) overflows and exp(-800) underflows, yet both potentials have an ordinary chain
        rng = np.random.default_rng(3)
        for _ in range(20):
            pot = random_wide_potential(rng, four_matrix)
            chain, data = normalize(pot)
            shifted, shifted_data = normalize(Potential(four_matrix, {e: v + shift for e, v in pot.values.items()}))
            assert np.abs(shifted.q - chain.q).max() <= 1e-12
            assert np.abs(shifted_data.left - data.left).max() <= 1e-12
            expected = math.inf if shift > 709 else data.root * math.exp(shift)  # 0.0 at -800
            assert shifted_data.root == pytest.approx(expected, rel=1e-12, abs=0)

    def test_stationary_vector_is_left_times_right(self):
        rng = np.random.default_rng(13)
        for n in (4, 6, 8, 12, 16):
            for _ in range(40):
                chain, data = normalize(random_wide_potential(rng, random_primitive_matrix(rng, n)))
                pi = chain.pi
                assert pi.min() > 0
                assert abs(pi.sum() - 1.0) <= 1e-15
                assert np.abs(chain.q @ pi - pi).max() <= 1e-15
                assert np.abs(pi - _stationary(chain.q)).max() <= 1e-14
                assert np.array_equal(pi, data.left * data.right)

    def test_idempotent_on_normalized_potential(self, fixture_chain):
        chain, data = normalize(fixture_chain.normalized_potential())
        assert data.root == pytest.approx(1.0, abs=1e-12)
        assert np.abs(chain.q - fixture_chain.q).max() < 1e-12

    def test_column_sums_and_entry_ranges(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            matrix = random_primitive_matrix(rng, int(rng.integers(2, 7)))
            chain, _ = normalize(random_potential(rng, matrix))
            assert np.abs(chain.q.sum(axis=0) - 1.0).max() <= 1e-12
            branch_edges = structure(matrix).branch_edges
            for i, j in matrix.edges:
                value = chain.value(i, j)
                if (i, j) in branch_edges:
                    assert 0.0 < value < 1.0
                else:
                    assert value == 1.0


GOLDEN_EXACT = {(1, 2): Fraction(1, 3), (2, 2): Fraction(2, 3), (2, 1): 1}


class TestGibbsChainConstruction:
    def test_rejects_imprimitive_base(self):
        swap = TransitionMatrix([[0, 1], [1, 0]])
        with pytest.raises(PreconditionError):
            GibbsChain.from_stochastic(swap, {(1, 2): 1.0, (2, 1): 1.0})

    def test_exact_needs_exact_column_sums(self, golden_mean):
        with pytest.raises(PreconditionError):
            GibbsChain.from_stochastic(
                golden_mean,
                {(1, 2): Fraction(1, 3), (2, 2): Fraction(1, 3), (2, 1): Fraction(1)},
            )

    def test_exact_entries_retained(self, golden_mean):
        chain = GibbsChain.from_stochastic(
            golden_mean,
            {(1, 2): Fraction(1, 3), (2, 2): Fraction(2, 3), (2, 1): Fraction(1)},
        )
        assert chain.exact[(1, 2)] == Fraction(1, 3)
        assert chain.value(1, 2) == pytest.approx(1 / 3)

    def test_float_columns_renormalized(self, golden_mean):
        chain = GibbsChain.from_stochastic(
            golden_mean, {(1, 2): 0.25 + 1e-12, (2, 2): 0.75, (2, 1): 1.0}
        )
        assert chain.q.sum(axis=0) == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_rejects_bad_column_sum(self, golden_mean):
        with pytest.raises(PreconditionError):
            GibbsChain.from_stochastic(golden_mean, {(1, 2): 0.4, (2, 2): 0.7, (2, 1): 1.0})

    def test_exact_column_error_names_the_first_failing_column(self, golden_mean):
        entries = {(1, 2): Fraction(1, 3), (2, 2): Fraction(1, 2), (2, 1): Fraction(1, 2)}
        with pytest.raises(PreconditionError, match="column 1 sums to 1/2, expected exactly 1"):
            GibbsChain.from_stochastic(golden_mean, entries)

    def test_entries_follow_the_chain(self, golden_mean):
        exact = GibbsChain.from_stochastic(golden_mean, GOLDEN_EXACT)
        floating = GibbsChain.from_stochastic(golden_mean, {(1, 2): 0.25, (2, 2): 0.75, (2, 1): 1.0})
        assert exact.entries == {(1, 2): Fraction(1, 3), (2, 1): Fraction(1), (2, 2): Fraction(2, 3)}
        assert floating.entries == {e: floating.value(*e) for e in golden_mean.edges}
        assert all(type(v) is float for v in floating.entries.values())
        assert floating.entries is floating.entries

    def test_repr_names_the_comparison_mode(self, golden_mean):
        exact = GibbsChain.from_stochastic(golden_mean, GOLDEN_EXACT)
        floating = GibbsChain.from_stochastic(golden_mean, {(1, 2): 0.25, (2, 2): 0.75, (2, 1): 1.0})
        assert repr(exact) == "GibbsChain(n=2, exact)"
        assert repr(floating) == "GibbsChain(n=2, numerical)"


class TestComparison:
    def test_exact_only_when_every_chain_is_exact(self, fixture_chain, four_matrix):
        rational = {e: Fraction(str(v)) for e, v in FIXTURE_VALUES.items()}
        exact = GibbsChain.from_stochastic(four_matrix, rational)
        assert Comparison.of(exact) is EXACT and Comparison.of(exact, exact) is EXACT
        assert Comparison.of(fixture_chain) is NUMERICAL
        assert Comparison.of(exact, fixture_chain) is NUMERICAL
        assert Comparison.of(fixture_chain, exact) is NUMERICAL
        assert (EXACT.exact, EXACT.mode) == (True, "exact")
        assert (NUMERICAL.exact, NUMERICAL.mode) == (False, "numerical")

    def test_same(self):
        assert EXACT.same(Fraction(1, 3), Fraction(1, 3))
        assert not EXACT.same(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**12))
        assert NUMERICAL.same(0.3, 0.3 * (1 + 1e-10))
        assert not NUMERICAL.same(0.3, 0.3 * (1 + 1e-8))

    def test_unmatched_returns_both_directions(self):
        xs = [Fraction(1, 5), Fraction(3, 10), Fraction(1, 5)]
        ys = [Fraction(1, 5), Fraction(1, 2)]
        assert EXACT.unmatched(xs, ys) == ((Fraction(3, 10),), (Fraction(1, 2),))
        assert NUMERICAL.unmatched(xs, [0.2 * (1 + 1e-12), 0.5]) == ((0.3,), (0.5,))
        assert NUMERICAL.unmatched([0.2, 0.2], [0.2]) == ((), ())

    def test_numerical_unmatched_lists_each_value_once(self):
        # 1/26 read from two columns with slightly different sums
        near = [0.03846153846153845, 0.03846153846153846]
        assert NUMERICAL.unmatched(near + [0.5, 0.5], [0.25]) == ((near[0], 0.5), (0.25,))
        assert NUMERICAL.unmatched([0.25], near) == ((0.25,), (near[0],))


class TestCylinderMeasure:
    def test_uniform_full_shift(self, full2):
        chain, _ = normalize(Potential.constant(full2, 0.0))
        assert cylinder_measure(chain, (1, 2)) == pytest.approx(0.25, abs=1e-14)

    def test_fixture_word(self, fixture_chain):
        assert cylinder_measure(fixture_chain, (1, 3, 2)) == pytest.approx(0.12, abs=1e-14)

    def test_empty_word(self, fixture_chain):
        assert cylinder_measure(fixture_chain, ()) == 1.0

    def test_inadmissible_word(self, fixture_chain):
        assert cylinder_measure(fixture_chain, (1, 1)) == 0.0
        assert cylinder_measure(fixture_chain, (5,)) == 0.0

    def test_shift_invariance_and_level_sums(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            matrix = random_primitive_matrix(rng, int(rng.integers(2, 6)))
            chain = random_chain(rng, matrix)
            for length in range(1, 7):
                words = [tuple(map(int, row)) for row in _word_rows(matrix, length)]
                total = sum(cylinder_measure(chain, w) for w in words)
                assert total == pytest.approx(1.0, abs=1e-12)
                for w in words[:: max(1, len(words) // 8)]:
                    extended = sum(
                        cylinder_measure(chain, (i,) + w)
                        for i in matrix.predecessors(w[0])
                    )
                    assert extended == pytest.approx(cylinder_measure(chain, w), abs=1e-12)


class TestGibbsRatio:
    def test_uniform_full_shift_is_exact(self, full2):
        pot = Potential.constant(full2, 0.0)
        chain, data = normalize(pot)
        lo, hi = gibbs_ratio_bounds(chain, pot, math.log(data.root), max_len=6)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_fixture_extrema(self, fixture_chain):
        # with zero pressure and the normalized potential, the ratio for a word
        # ending at l with continuation j is pi[l] / q[l, j]; extremizing over
        # (l, j) gives 0.28 / 1 below and 0.28 / 0.2 above, already at length 1
        pot = fixture_chain.normalized_potential()
        lo, hi = gibbs_ratio_bounds(fixture_chain, pot, 0.0, max_len=10)
        assert lo == pytest.approx(0.28, rel=1e-10)
        assert hi == pytest.approx(1.4, rel=1e-10)

    def test_bounds_stable_in_depth(self):
        rng = np.random.default_rng(6)
        matrix = random_primitive_matrix(rng, 4)
        pot = random_potential(rng, matrix)
        chain, data = normalize(pot)
        pressure = math.log(data.root)
        lo4, hi4 = gibbs_ratio_bounds(chain, pot, pressure, max_len=4)
        lo10, hi10 = gibbs_ratio_bounds(chain, pot, pressure, max_len=10)
        assert 0 < lo10 <= lo4
        assert hi4 <= hi10 < math.inf
        assert abs(lo10 - lo4) <= 0.1 * lo4
        assert abs(hi10 - hi4) <= 0.1 * hi4

    def test_full_six_shift_builds_no_word(self):
        # the full 6-shift has 6**10 words of length 10, about 4.8 GB as int64
        full6 = TransitionMatrix(np.ones((6, 6), dtype=int))
        pot = Potential.constant(full6, 0.0)
        chain, data = normalize(pot)
        for max_len in (10, 200):
            start = time.perf_counter()
            lo, hi = gibbs_ratio_bounds(chain, pot, math.log(data.root), max_len)
            assert time.perf_counter() - start < 0.5
            assert lo == pytest.approx(1.0, abs=1e-12)
            assert hi == pytest.approx(1.0, abs=1e-12)
        assert chain.base._words == {}

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ratio_cases())
    def test_matches_word_enumeration(self, case):
        potential, max_len, pressure = case
        chain, data = normalize(potential)
        if pressure is None:
            pressure = math.log(data.root)
        expected = reference.gibbs_ratio_bounds(
            potential.base.entries, chain.q, chain.pi, potential.values, pressure, max_len
        )
        assert gibbs_ratio_bounds(chain, potential, pressure, max_len) == pytest.approx(expected, rel=1e-12, abs=0)


class TestKsEntropy:
    def test_uniform_full_shift(self, full2):
        chain, _ = normalize(Potential.constant(full2, 0.0))
        assert ks_entropy(chain) == pytest.approx(math.log(2), abs=1e-13)

    def test_fixture_formula(self, fixture_chain):
        expected = -(
            0.4 * (0.2 * math.log(0.2) + 0.3 * math.log(0.3) + 0.5 * math.log(0.5))
            + 0.2 * (0.4 * math.log(0.4) + 0.6 * math.log(0.6))
        )
        assert ks_entropy(fixture_chain) == pytest.approx(expected, abs=1e-13)

    def test_deterministic_chain_rejected(self):
        # a permutation matrix would make every entry 1, but it is not primitive
        swap = TransitionMatrix([[0, 1], [1, 0]])
        with pytest.raises(PreconditionError):
            GibbsChain.from_stochastic(swap, {(1, 2): 1.0, (2, 1): 1.0})


class TestCycleSum:
    def test_fixture_cycle(self, fixture_chain):
        assert cycle_sum(fixture_chain, (1, 3, 2, 1)) == pytest.approx(math.log(0.3), abs=1e-13)

    def test_unit_edges_contribute_nothing(self, fixture_chain):
        # edges (1,3) and (2,1) carry the value 1 inside the cycle 1321
        assert cycle_sum(fixture_chain, (1, 3, 2, 1)) == pytest.approx(
            math.log(fixture_chain.value(3, 2)), abs=1e-13
        )

    def test_twin_cycle_value(self, fixture_chain):
        from markovgibbs import spectral_twin_chain

        twin = spectral_twin_chain(fixture_chain)
        assert cycle_sum(twin, (1, 3, 2, 1)) == pytest.approx(math.log(0.2), abs=1e-12)

    def test_rejects_open_or_inadmissible(self, fixture_chain):
        with pytest.raises(PreconditionError):
            cycle_sum(fixture_chain, (1, 3, 2))
        with pytest.raises(PreconditionError):
            cycle_sum(fixture_chain, (1, 1))


class TestCohomology:
    def test_coboundary_plus_constant(self, four_matrix):
        rng = np.random.default_rng(8)
        pot = random_potential(rng, four_matrix)
        phi = rng.uniform(-1.0, 1.0, size=4)
        constant = 0.3
        moved = Potential(
            four_matrix,
            {(i, j): v + phi[j - 1] - phi[i - 1] + constant for (i, j), v in pot.values.items()},
        )
        same, witness = cohomologous_with_constant(pot, moved)
        assert same and witness is None
        chain_a, _ = normalize(pot)
        chain_b, _ = normalize(moved)
        assert np.abs(chain_a.q - chain_b.q).max() < 1e-10

    def test_self_comparison(self, four_matrix):
        rng = np.random.default_rng(9)
        pot = random_potential(rng, four_matrix)
        assert cohomologous_with_constant(pot, pot) == (True, None)

    def test_detects_difference_with_witness(self, fixture_chain):
        from markovgibbs import spectral_twin_chain

        twin = spectral_twin_chain(fixture_chain)
        same, witness = chains_cohomologous(fixture_chain, twin)
        assert not same
        assert witness == (1, 3, 2, 1)

    def test_base_mismatch(self, four_matrix, full2):
        with pytest.raises(PreconditionError):
            cohomologous_with_constant(
                Potential.constant(four_matrix, 0.0), Potential.constant(full2, 0.0)
            )

    def test_simple_cycle_agreement_extends_to_all_closed_walks(self, four_matrix):
        # the check is restricted to simple cycles; validate the decomposition
        # argument brute force: a pair passing it has equal sums on every
        # closed walk up to length 8
        rng = np.random.default_rng(10)
        pot = random_potential(rng, four_matrix)
        phi = rng.uniform(-1.0, 1.0, size=4)
        moved = Potential(
            four_matrix,
            {(i, j): v + phi[j - 1] - phi[i - 1] - 0.2 for (i, j), v in pot.values.items()},
        )
        assert cohomologous_with_constant(pot, moved)[0]
        chain_a, _ = normalize(pot)
        chain_b, _ = normalize(moved)
        for length in range(2, 9):
            for row in _word_rows(four_matrix, length):
                word = tuple(map(int, row))
                if word[0] != word[-1]:
                    continue
                assert cycle_sum(chain_a, word) == pytest.approx(
                    cycle_sum(chain_b, word), abs=1e-10
                )
