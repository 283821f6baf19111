import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings

from markovgibbs import (
    AutomorphismResult,
    PreconditionError,
    TransitionMatrix,
    admissible_words,
    automorphisms,
    counterexample_matrix,
    cycle_intersection_condition,
    is_admissible,
    is_primitive,
    simple_cycles,
    structure,
    total_amalgamation,
)
from markovgibbs import shiftcore
from markovgibbs.shiftcore import WORD_LIMIT, _word_count

from conftest import circulant, no_word_table, primitive_bases, random_primitive_matrix


def _brute_force_automorphisms(matrix):
    """Every permutation of S_n tried on the full matrix, then tagged as
    :func:`automorphisms` documents."""
    a = matrix.entries
    perms = sorted(
        tuple(s + 1 for s in perm)
        for perm in itertools.permutations(range(matrix.n))
        if np.array_equal(a[np.ix_(perm, perm)], a)
    )
    reduced, _ = total_amalgamation(matrix)
    trivial = reduced.n == matrix.n and len(perms) == 1
    return AutomorphismResult("trivial" if trivial else "inconclusive", tuple(perms))


class TestTransitionMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(PreconditionError):
            TransitionMatrix([[1, 0, 1], [1, 1, 0]])

    def test_rejects_non_binary(self):
        with pytest.raises(PreconditionError):
            TransitionMatrix([[2, 0], [1, 1]])

    def test_rejects_empty_row_or_column(self):
        with pytest.raises(PreconditionError):
            TransitionMatrix([[0, 0], [1, 1]])
        with pytest.raises(PreconditionError):
            TransitionMatrix([[1, 0], [1, 0]])

    def test_edges_and_neighbors(self, golden_mean):
        assert golden_mean.edges == ((1, 2), (2, 1), (2, 2))
        assert golden_mean.successors(2) == (1, 2)
        assert golden_mean.predecessors(2) == (1, 2)
        assert golden_mean.has_edge(1, 2) and not golden_mean.has_edge(1, 1)

    def test_equality_and_hash(self, four_matrix):
        twin = TransitionMatrix(four_matrix.entries)
        assert twin == four_matrix
        assert hash(twin) == hash(four_matrix)


class TestPrimitivity:
    def test_full_shift_primitive(self, full2):
        assert is_primitive(full2)

    def test_swap_permutation_never_positive(self):
        assert not is_primitive(TransitionMatrix([[0, 1], [1, 0]]))

    def test_four_symbol_example(self, four_matrix):
        assert is_primitive(four_matrix)


class TestStructure:
    def test_four_symbol_example(self, four_matrix):
        st = structure(four_matrix)
        assert st.in_degrees == (1, 3, 1, 2)
        assert st.branch_symbols == frozenset({2, 4})
        assert st.branch_edges == frozenset({(1, 2), (3, 2), (4, 2), (1, 4), (2, 4)})
        assert len(st.edges) == 7

    def test_full_shift(self, full2):
        st = structure(full2)
        assert st.branch_symbols == frozenset({1, 2})
        assert st.branch_edges == frozenset(full2.edges)

    def test_golden_mean(self, golden_mean):
        st = structure(golden_mean)
        assert st.in_degrees == (1, 2)
        assert st.branch_symbols == frozenset({2})
        assert st.branch_edges == frozenset({(1, 2), (2, 2)})

    def test_requires_primitive(self):
        with pytest.raises(PreconditionError):
            structure(TransitionMatrix([[0, 1], [1, 0]]))

    def test_in_degrees_positive_on_random_samples(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            matrix = random_primitive_matrix(rng, int(rng.integers(2, 7)))
            assert min(structure(matrix).in_degrees) >= 1


class TestAdmissibleWords:
    def test_four_symbol_length_two(self, four_matrix):
        words = admissible_words(four_matrix, 2)
        assert words == [(1, 2), (1, 3), (1, 4), (2, 1), (2, 4), (3, 2), (4, 2)]

    def test_full_shift_length_three(self, full2):
        assert len(admissible_words(full2, 3)) == 8

    def test_length_zero_is_empty_word(self, four_matrix):
        assert admissible_words(four_matrix, 0) == [()]

    def test_negative_length_rejected(self, four_matrix):
        with pytest.raises(PreconditionError):
            admissible_words(four_matrix, -1)

    def test_lexicographic_order(self, four_matrix):
        for length in range(1, 5):
            words = admissible_words(four_matrix, length)
            assert words == sorted(words)
            assert all(is_admissible(four_matrix, w) for w in words)

    def test_count_recursion_on_random_samples(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            matrix = random_primitive_matrix(rng, int(rng.integers(2, 6)))
            out_degree = {s: len(matrix.successors(s)) for s in range(1, matrix.n + 1)}
            for length in range(1, 5):
                words = admissible_words(matrix, length)
                expected = sum(out_degree[w[-1]] for w in words)
                assert len(admissible_words(matrix, length + 1)) == expected

    def test_word_count_is_exact(self, four_matrix, golden_mean):
        rng = np.random.default_rng(12)
        matrices = [four_matrix, golden_mean]
        matrices += [random_primitive_matrix(rng, int(rng.integers(2, 7))) for _ in range(10)]
        for matrix in matrices:
            for length in range(0, 7):
                assert _word_count(matrix, length) == len(admissible_words(matrix, length))

    def test_word_limit_refuses_before_building(self, full2, monkeypatch):
        # 2**19 words of length 19 are within the limit, 2**20 are not
        assert _word_count(full2, 19) == 2**19 <= WORD_LIMIT < 2**20
        monkeypatch.setattr(shiftcore, "_word_rows", no_word_table)
        with pytest.raises(PreconditionError, match=f"{2**20} admissible words of length 20"):
            admissible_words(full2, 20)
        # the count is exact in Python integers far past int64
        with pytest.raises(PreconditionError, match=str(2**200)):
            admissible_words(full2, 200)

    def test_long_words_need_no_deep_recursion(self):
        # one word of each length on the one-symbol shift; lengths past the
        # interpreter's recursion limit are built shortest first
        length = 1200
        assert admissible_words(TransitionMatrix([[1]]), length) == [(1,) * length]

    def test_admissibility_cases(self, golden_mean):
        assert is_admissible(golden_mean, ())
        assert is_admissible(golden_mean, (1,))
        assert is_admissible(golden_mean, (1, 2, 2, 1))
        assert not is_admissible(golden_mean, (1, 1))
        assert not is_admissible(golden_mean, (3,))


class TestSimpleCycles:
    def test_four_symbol_example(self, four_matrix):
        assert simple_cycles(four_matrix) == (
            (1, 2, 1),
            (1, 3, 2, 1),
            (1, 4, 2, 1),
            (2, 4, 2),
        )

    def test_full_shift(self, full2):
        assert simple_cycles(full2) == ((1, 1), (1, 2, 1), (2, 2))

    def test_golden_mean(self, golden_mean):
        assert simple_cycles(golden_mean) == ((1, 2, 1), (2, 2))

    def test_every_cycle_meets_a_branch_symbol(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            matrix = random_primitive_matrix(rng, int(rng.integers(2, 7)))
            branch = structure(matrix).branch_symbols
            for cycle in simple_cycles(matrix):
                assert set(cycle) & branch

    def test_agrees_with_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(13)
        for _ in range(15):
            matrix = random_primitive_matrix(rng, int(rng.integers(2, 7)))
            graph = nx.DiGraph(
                (i, j) for i in range(1, matrix.n + 1) for j in matrix.successors(i)
            )
            expected = set()
            for nodes in nx.simple_cycles(graph):
                k = nodes.index(min(nodes))
                rotated = nodes[k:] + nodes[:k]
                expected.add(tuple(rotated) + (rotated[0],))
            assert set(simple_cycles(matrix)) == expected


class TestCycleIntersectionCondition:
    def test_four_symbol_example_holds(self, four_matrix):
        holds, violations = cycle_intersection_condition(four_matrix)
        assert holds and violations == ()

    def test_full_shift_fails(self, full2):
        holds, violations = cycle_intersection_condition(full2)
        assert not holds
        assert ((1, 1), (2, 2)) in violations  # disjoint loops
        assert ((1, 2, 1), (1, 1)) in violations  # edge-count ratio 2

    def test_golden_mean_fails_on_ratio(self, golden_mean):
        holds, violations = cycle_intersection_condition(golden_mean)
        assert not holds
        assert ((1, 2, 1), (2, 2)) in violations


class TestTotalAmalgamation:
    def test_four_symbol_example_is_fixed(self, four_matrix):
        reduced, mapping = total_amalgamation(four_matrix)
        assert reduced == four_matrix
        assert mapping == {1: 1, 2: 2, 3: 3, 4: 4}

    def test_full_shift_collapses(self, full2):
        reduced, mapping = total_amalgamation(full2)
        assert reduced.n == 1
        assert np.array_equal(reduced.entries, [[1]])
        assert mapping == {1: 1, 2: 1}

    def test_golden_mean_is_fixed(self, golden_mean):
        reduced, _ = total_amalgamation(golden_mean)
        assert reduced == golden_mean

    def test_no_repeated_columns_and_idempotent(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            matrix = random_primitive_matrix(rng, int(rng.integers(2, 7)))
            reduced, mapping = total_amalgamation(matrix)
            cols = {tuple(reduced.entries[:, j]) for j in range(reduced.n)}
            assert len(cols) == reduced.n
            assert set(mapping) == set(range(1, matrix.n + 1))
            again, identity = total_amalgamation(reduced)
            assert again == reduced
            assert identity == {s: s for s in range(1, reduced.n + 1)}


class TestAutomorphisms:
    def test_four_symbol_example_trivial(self, four_matrix):
        result = automorphisms(four_matrix)
        assert result.trivial
        assert result.permutations == ((1, 2, 3, 4),)

    def test_full_three_shift_inconclusive(self):
        result = automorphisms(TransitionMatrix(np.ones((3, 3), dtype=int)))
        assert result.status == "inconclusive"
        assert len(result.permutations) == 6

    def test_golden_mean_trivial(self, golden_mean):
        result = automorphisms(golden_mean)
        assert result.trivial
        assert result.permutations == ((1, 2),)

    def test_group_axioms_on_random_samples(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            matrix = random_primitive_matrix(rng, int(rng.integers(2, 6)))
            perms = set(automorphisms(matrix).permutations)
            identity = tuple(range(1, matrix.n + 1))
            assert identity in perms
            for p in perms:
                inverse = tuple(sorted(range(1, matrix.n + 1), key=lambda s: p[s - 1]))
                assert inverse in perms
                for q in perms:
                    assert tuple(p[q[s - 1] - 1] for s in range(1, matrix.n + 1)) in perms

    def test_size_guard(self):
        big = TransitionMatrix(np.ones((11, 11), dtype=int))
        with pytest.raises(PreconditionError):
            automorphisms(big)

    def test_matches_unpruned_search(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            matrix = random_primitive_matrix(rng, int(rng.integers(2, 6)))
            assert automorphisms(matrix) == _brute_force_automorphisms(matrix)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(primitive_bases(max_n=6))
    def test_matches_brute_force_on_generated_bases(self, matrix):
        assert automorphisms(matrix) == _brute_force_automorphisms(matrix)

    def test_nine_symbol_circulant_is_fast(self):
        matrix = circulant(9, (0, 1, 3))
        is_primitive(matrix)
        start = time.perf_counter()
        result = automorphisms(matrix)
        assert time.perf_counter() - start < 0.5
        assert result.status == "inconclusive"
        assert len(result.permutations) == 9  # the rotations alone


class TestCachedData:
    def test_neighbor_tables_match_nonzero(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            matrix = random_primitive_matrix(rng, int(rng.integers(2, 9)))
            rows, cols = np.nonzero(matrix.entries)
            assert matrix.edges == tuple((int(i) + 1, int(j) + 1) for i, j in zip(rows, cols))
            assert matrix.edges is matrix.edges
            for s in range(1, matrix.n + 1):
                assert matrix.successors(s) == tuple(int(j) + 1 for j in np.nonzero(matrix.entries[s - 1])[0])
                assert matrix.predecessors(s) == tuple(int(i) + 1 for i in np.nonzero(matrix.entries[:, s - 1])[0])

    def test_automorphisms_are_memoized(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            matrix = random_primitive_matrix(rng, int(rng.integers(2, 7)))
            result = automorphisms(matrix)
            assert automorphisms(matrix) is result
            assert automorphisms(TransitionMatrix(matrix.entries)) == result

    def _count_searches(self, monkeypatch):
        searched = []
        search = shiftcore._graph_automorphisms
        monkeypatch.setattr(shiftcore, "_graph_automorphisms", lambda m: searched.append(m) or search(m))
        return searched

    def test_second_call_does_no_work(self, monkeypatch):
        searched = self._count_searches(monkeypatch)
        matrix = circulant(6, (0, 1, 3))
        first = automorphisms(matrix)
        assert automorphisms(matrix) is first
        assert searched == [matrix]
        words = shiftcore._word_rows(matrix, 4)
        assert shiftcore._word_rows(matrix, 4) is words

    def test_equal_matrices_do_not_share_a_memo(self, monkeypatch):
        searched = self._count_searches(monkeypatch)
        first, second = TransitionMatrix(np.ones((3, 3), dtype=int)), TransitionMatrix(np.ones((3, 3), dtype=int))
        assert first == second and first is not second
        assert automorphisms(first) == automorphisms(second)
        assert automorphisms(first) is not automorphisms(second)
        assert searched == [first, second]

    def test_raising_call_stores_nothing(self):
        big = TransitionMatrix(np.ones((11, 11), dtype=int))
        swap = TransitionMatrix([[0, 1], [1, 0]])
        for _ in range(2):
            with pytest.raises(PreconditionError, match="limited to 10 symbols"):
                automorphisms(big)
            with pytest.raises(PreconditionError, match="not primitive"):
                simple_cycles(swap)

    def test_counterexample_matrix_is_one_read_only_instance(self):
        shared = counterexample_matrix()
        assert counterexample_matrix() is shared
        assert shared == TransitionMatrix(shared.entries)
        assert not shared.entries.flags.writeable
        with pytest.raises(ValueError):
            shared.entries[0, 0] = 1

