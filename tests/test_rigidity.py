import itertools
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from markovgibbs import (
    BlockCode,
    ConjugacyObstruction,
    DegenerateError,
    GibbsChain,
    Potential,
    PreconditionError,
    ReconstructionError,
    TransitionMatrix,
    WrongBaseError,
    counterexample_matrix,
    has_distinct_branch_values,
    induce_conjugacy,
    normalize,
    reconstruct_word,
    sampled_distinct_fraction,
    snr_certificate,
    spectral_twin,
    spectral_twin_chain,
    structure,
)
from markovgibbs.rigidity import (
    _branch_items,
    _branch_value_sets_match,
    _decode_window,
    _is_one,
    _walk_back,
)
from markovgibbs.shiftcore import _word_count, _word_rows, admissible_words
from markovgibbs.tolerances import CHAR_POLY_TOL, CYCLE_SUM_TOL, VALUE_MATCH_TOL

from conftest import (
    FIXTURE_VALUES,
    random_chain_with_distinct_values,
    random_primitive_matrix,
)


def chain_with(four_matrix, a1, a2, a3, b1, b2):
    return GibbsChain.from_stochastic(
        four_matrix,
        {
            (2, 1): 1.0,
            (1, 3): 1.0,
            (1, 2): a1,
            (3, 2): a2,
            (4, 2): a3,
            (1, 4): b1,
            (2, 4): b2,
        },
    )


class TestDistinctBranchValues:
    def test_fixture_is_distinct(self, fixture_chain):
        assert has_distinct_branch_values(fixture_chain) == (True, None)

    def test_collision_reported_in_column_order(self, four_matrix):
        chain = chain_with(four_matrix, 0.4, 0.3, 0.3, 0.4, 0.6)
        ok, pair = has_distinct_branch_values(chain)
        assert not ok
        assert pair == ((3, 2), (4, 2))

    def test_uniform_full_shift_collides(self, full2):
        chain, _ = normalize(Potential.constant(full2, 0.0))
        ok, pair = has_distinct_branch_values(chain)
        assert not ok
        assert pair == ((1, 1), (2, 1))

    def test_exact_comparison(self, four_matrix):
        values = {
            (2, 1): Fraction(1),
            (1, 3): Fraction(1),
            (1, 2): Fraction(1, 4),
            (3, 2): Fraction(1, 4),
            (4, 2): Fraction(1, 2),
            (1, 4): Fraction(1, 3),
            (2, 4): Fraction(2, 3),
        }
        chain = GibbsChain.from_stochastic(four_matrix, values)
        ok, pair = has_distinct_branch_values(chain)
        assert not ok and pair == ((1, 2), (3, 2))


class TestSampledDistinctFraction:
    def test_four_symbol_matrix(self, four_matrix):
        assert sampled_distinct_fraction(four_matrix, 200, seed=0) == 1.0

    def test_full_shift(self, full2):
        assert sampled_distinct_fraction(full2, 200, seed=1) == 1.0

    def test_rejects_empty_sample(self, four_matrix):
        with pytest.raises(PreconditionError):
            sampled_distinct_fraction(four_matrix, 0)


class TestReconstructWord:
    def test_single_branch_value(self, fixture_chain):
        assert reconstruct_word(fixture_chain, [0.3]) == (3, 2)

    def test_unit_value_forces_predecessor(self, fixture_chain):
        assert reconstruct_word(fixture_chain, [1.0, 0.3]) == (1, 3, 2)

    def test_unmatched_value(self, fixture_chain):
        with pytest.raises(ReconstructionError) as info:
            reconstruct_word(fixture_chain, [0.7])
        assert info.value.code == "no_match"

    def test_terminal_one_rejected(self, fixture_chain):
        with pytest.raises(ReconstructionError) as info:
            reconstruct_word(fixture_chain, [0.3, 1.0])
        assert info.value.code == "bad_terminal"

    def test_ambiguous_chain_rejected(self, four_matrix):
        chain = chain_with(four_matrix, 0.4, 0.3, 0.3, 0.4, 0.6)
        with pytest.raises(ReconstructionError) as info:
            reconstruct_word(chain, [0.4])
        assert info.value.code == "not_in_G"

    def test_inconsistent_stream(self, fixture_chain):
        # 0.4 decodes to the edge (1, 4), which cannot precede the edge (3, 2)
        with pytest.raises(ReconstructionError) as info:
            reconstruct_word(fixture_chain, [0.4, 0.3])
        assert info.value.code == "no_match"

    def test_round_trip_and_injectivity(self, four_matrix):
        rng = np.random.default_rng(21)
        branch = structure(four_matrix).branch_symbols
        for _ in range(10):
            chain = random_chain_with_distinct_values(rng, four_matrix)
            for length in range(2, 7):
                streams = set()
                for row in _word_rows(four_matrix, length):
                    word = tuple(map(int, row))
                    if word[-1] not in branch:
                        continue
                    stream = tuple(
                        chain.value(i, j) for i, j in zip(word, word[1:])
                    )
                    streams.add(stream)
                    assert reconstruct_word(chain, list(stream)) == word
                expected = sum(
                    1
                    for row in _word_rows(four_matrix, length)
                    if int(row[-1]) in branch
                )
                assert len(streams) == expected


class TestInduceConjugacy:
    def test_self_conjugacy_is_identity(self, fixture_chain):
        code = induce_conjugacy(fixture_chain, fixture_chain)
        assert isinstance(code, BlockCode)
        assert code.window == 5
        assert code.is_identity()

    def test_self_conjugacy_on_random_chains(self, four_matrix):
        rng = np.random.default_rng(22)
        for _ in range(5):
            chain = random_chain_with_distinct_values(rng, four_matrix)
            code = induce_conjugacy(chain, chain)
            assert isinstance(code, BlockCode) and code.is_identity()

    def test_relabeling_recovered(self, full2, fixture_chain):
        chain = GibbsChain.from_stochastic(
            full2, {(1, 1): 0.3, (2, 1): 0.7, (1, 2): 0.6, (2, 2): 0.4}
        )
        swapped = GibbsChain.from_stochastic(
            full2, {(1, 1): 0.4, (2, 1): 0.6, (1, 2): 0.7, (2, 2): 0.3}
        )
        code = induce_conjugacy(chain, swapped)
        assert isinstance(code, BlockCode)
        swap = {1: 2, 2: 1}
        assert all(symbol == swap[word[0]] for word, symbol in code.table.items())
        # the image of a long word under the code is the relabeled word
        assert code.apply((1, 2, 2, 1, 1)) == (2, 1, 1)
        # the 4-symbol fixture has entries equal to 1, so building its code
        # walks back through unique predecessors
        for perm in itertools.permutations(range(1, 5)):
            label = dict(zip(range(1, 5), perm))
            entries = np.zeros((4, 4), dtype=int)
            values = {}
            for (i, j), v in FIXTURE_VALUES.items():
                entries[label[i] - 1, label[j] - 1] = 1
                values[(label[i], label[j])] = v
            relabeled = GibbsChain.from_stochastic(TransitionMatrix(entries), values)
            code = induce_conjugacy(fixture_chain, relabeled)
            assert isinstance(code, BlockCode), perm
            assert all(symbol == label[word[0]] for word, symbol in code.table.items()), perm

    def test_twin_pair_obstructed(self, fixture_chain):
        result = induce_conjugacy(fixture_chain, spectral_twin_chain(fixture_chain))
        assert isinstance(result, ConjugacyObstruction)
        assert result.kind == "value_set_mismatch"
        assert result.missing_from_target == (0.3, 0.4)
        assert result.missing_from_source == ()

    def test_branch_edge_count_precondition(self, fixture_chain, full2):
        other = GibbsChain.from_stochastic(
            full2, {(1, 1): 0.3, (2, 1): 0.7, (1, 2): 0.6, (2, 2): 0.4}
        )
        with pytest.raises(PreconditionError):
            induce_conjugacy(fixture_chain, other)

    def test_source_must_have_distinct_values(self, four_matrix, fixture_chain):
        ambiguous = chain_with(four_matrix, 0.4, 0.3, 0.3, 0.4, 0.6)
        with pytest.raises(PreconditionError):
            induce_conjugacy(ambiguous, fixture_chain)

    def test_matching_sets_without_conjugacy(self, full2, golden_mean):
        # same branch-value multiset on structurally different graphs
        chain_a = GibbsChain.from_stochastic(
            full2, {(1, 1): 0.3, (2, 1): 0.7, (1, 2): 0.6, (2, 2): 0.4}
        )
        three = GibbsChain.from_stochastic(
            TransitionMatrix([[1, 1, 0], [0, 0, 1], [1, 1, 0]]),
            {
                (1, 1): 0.3,
                (3, 1): 0.7,
                (1, 2): 0.6,
                (3, 2): 0.4,
                (2, 3): 1.0,
            },
        )
        result = induce_conjugacy(chain_a, three)
        assert isinstance(result, ConjugacyObstruction)
        assert result.kind == "not_invertible"

    def test_decode_window_of_counterexample_base(self, fixture_chain):
        # the longest run of in-degree-1 symbols is 1 -> 3, entered from 2
        assert _decode_window(fixture_chain) == 4

    def test_single_symbol_is_not_invertible(self):
        chain = GibbsChain.from_stochastic(TransitionMatrix([[1]]), {(1, 1): 1.0})
        assert _decode_window(chain) is None
        result = induce_conjugacy(chain, chain)
        assert isinstance(result, ConjugacyObstruction)
        assert result.kind == "not_invertible"
        assert result.detail == "no consistent sliding code exists"

    def test_eight_symbol_self_conjugacy(self):
        # window n + 1 and probe length 2n + 2 ran out of memory at n = 8
        rng = np.random.default_rng(0)
        chain = random_chain_with_distinct_values(rng, random_primitive_matrix(rng, 8))
        start = time.perf_counter()
        code = induce_conjugacy(chain, chain)
        elapsed = time.perf_counter() - start
        assert isinstance(code, BlockCode) and code.is_identity()
        assert code.window == 9
        assert elapsed < 10.0  # about 0.6 s on a 2-vCPU VM

    def test_dense_base_is_refused_fast(self):
        rng = np.random.default_rng(1)
        chain = random_chain_with_distinct_values(rng, TransitionMatrix(np.ones((12, 12), dtype=int)))
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match=f"{12**13} admissible words of length 13"):
            induce_conjugacy(chain, chain)
        assert time.perf_counter() - start < 0.5


def _reference_build_code(source, target):
    """The induced code on window ``n + 1``, as first implemented."""
    window = source.n + 1
    items = [(e, float(v)) for e, v in _branch_items(target)]
    table = {}
    for word in admissible_words(source.base, window):
        stream = [float(source.q[i - 1, j - 1]) for i, j in zip(word, word[1:])]
        first = next((k for k, v in enumerate(stream) if not _is_one(v)), None)
        if first is None:
            return None
        try:
            table[word] = _walk_back(target, items, stream[: first + 1])[0]
        except ReconstructionError:
            return None
    return BlockCode(window, table)


def _reference_respects_edges(code, source, target):
    for word in admissible_words(source.base, code.window + 1):
        image = code.apply(word)
        if not target.base.has_edge(image[0], image[1]):
            return False
    return True


def _reference_conjugacy(chain_a, chain_b):
    """``induce_conjugacy`` with window ``n + 1`` and probe ``n_a + n_b + 2``."""
    if len(chain_a.structure.branch_edges) != len(chain_b.structure.branch_edges):
        raise PreconditionError("chains must have equally many branch edges")
    ok, collision = has_distinct_branch_values(chain_a)
    if not ok:
        raise PreconditionError(f"source branch values collide on {collision[0]} and {collision[1]}")
    match, missing_b, missing_a = _branch_value_sets_match(chain_a, chain_b)
    if not match:
        return ConjugacyObstruction(
            "value_set_mismatch",
            missing_from_target=tuple(float(v) for v in missing_b),
            missing_from_source=tuple(float(v) for v in missing_a),
            detail="branch-value sets differ, so the systems are not isomorphic",
        )
    forward = _reference_build_code(chain_a, chain_b)
    if forward is None or not _reference_respects_edges(forward, chain_a, chain_b):
        return ConjugacyObstruction("not_invertible", detail="no consistent sliding code exists")
    backward = _reference_build_code(chain_b, chain_a)
    if backward is None or not _reference_respects_edges(backward, chain_b, chain_a):
        return ConjugacyObstruction("not_invertible", detail="no consistent reverse code exists")
    probe = chain_a.n + chain_b.n + 2
    for word in admissible_words(chain_a.base, probe):
        if backward.apply(forward.apply(word)) != word[:2]:
            return ConjugacyObstruction("not_invertible", detail="round trip fails on the source side")
    for word in admissible_words(chain_b.base, probe):
        if forward.apply(backward.apply(word)) != word[:2]:
            return ConjugacyObstruction("not_invertible", detail="round trip fails on the target side")
    return forward


def _outcome(conjugacy, chain_a, chain_b):
    try:
        result = conjugacy(chain_a, chain_b)
    except PreconditionError as error:
        return ("raises", str(error))
    if isinstance(result, BlockCode):
        return ("code", result.window, list(result.table.items()))
    return (result.kind, result.detail, result.missing_from_target, result.missing_from_source)


# Words of length 2n + 2 allowed on a drawn base, which keeps the reference fast.
_REFERENCE_WORDS = 6_000


def _out_split(chain):
    """The chain with a new symbol ``n + 1`` split off an in-degree-1 symbol
    ``s`` of out-degree at least 2: the new symbol takes the last edge out
    of ``s`` with its entry, and is entered from the predecessor of ``s``
    with entry 1.  The result is conjugate to the chain on ``n + 1``
    symbols.  None when no symbol qualifies.
    """
    base = chain.base
    for s in range(1, base.n + 1):
        if chain.structure.in_degrees[s - 1] == 1 and len(base.successors(s)) >= 2:
            break
    else:
        return None
    moved = base.successors(s)[-1]
    values = {e: chain.value(*e) for e in base.edges if e != (s, moved)}
    values[(base.predecessors(s)[0], base.n + 1)] = 1.0
    values[(base.n + 1, moved)] = chain.value(s, moved)
    entries = np.zeros((base.n + 1, base.n + 1), dtype=int)
    for i, j in values:
        entries[i - 1, j - 1] = 1
    return GibbsChain.from_stochastic(TransitionMatrix(entries), values)


@st.composite
def conjugacy_cases(draw):
    """Pairs of chains from one chain on a random primitive base with 2 to 5
    symbols: the chain against itself, a symbol-relabeled copy, a chain
    from other edge values on the same base, the chain with its branch
    entries rotated within each column (the same value set, usually another
    chain), and, both ways, an out-split copy on ``n + 1`` symbols.

    Every base carries the cycle ``1 -> 2 -> ... -> n -> 1`` and a loop at
    1 (so it is primitive) plus up to ``n`` drawn edges, the last of which
    are dropped while the base has more than ``_REFERENCE_WORDS`` words of
    length ``2n + 2``.
    """
    n = draw(st.integers(2, 5))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    while True:
        entries = np.roll(np.eye(n, dtype=int), 1, axis=1)
        entries[0, 0] = 1
        for i, j in extra:
            entries[i, j] = 1
        base = TransitionMatrix(entries)
        if _word_count(base, 2 * n + 2) <= _REFERENCE_WORDS:
            break
        extra.pop()
    weights = draw(hnp.arrays(float, (2, n, n), elements=st.floats(-3.0, 3.0)))
    chain, other = (
        normalize(Potential(base, {(i, j): w[i - 1, j - 1] for i, j in base.edges}))[0]
        for w in weights
    )
    label = dict(zip(range(1, n + 1), draw(st.permutations(range(1, n + 1)))))
    relabeled_entries = np.zeros((n, n), dtype=int)
    relabeled_values = {}
    for i, j in base.edges:
        relabeled_entries[label[i] - 1, label[j] - 1] = 1
        relabeled_values[(label[i], label[j])] = chain.value(i, j)
    rotated_values = {}
    for j in range(1, n + 1):
        column = [(i, j) for i in base.predecessors(j)]
        for edge, moved in zip(column, column[1:] + column[:1]):
            rotated_values[moved] = chain.value(*edge)
    relabeled = GibbsChain.from_stochastic(TransitionMatrix(relabeled_entries), relabeled_values)
    rotated = GibbsChain.from_stochastic(base, rotated_values)
    pairs = [(chain, partner) for partner in (chain, relabeled, other, rotated)]
    split = _out_split(chain)
    if split is not None:
        pairs += [(chain, split), (split, chain)]
    return pairs


class TestConjugacyMatchesReference:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(conjugacy_cases())
    def test_same_code_or_obstruction(self, pairs):
        for chain_a, chain_b in pairs:
            assert _outcome(induce_conjugacy, chain_a, chain_b) == _outcome(_reference_conjugacy, chain_a, chain_b)


TWIN_EDGES = ((1, 2), (3, 2), (4, 2), (1, 4), (2, 4))  # (a1, a2, a3, b1, b2)


@st.composite
def rational_twin_entries(draw):
    """Rational entries of a chain on the 4-symbol base, denominators at most 64.

    A third of the draws make ``b1`` equal a column-2 entry (a branch-value
    collision), and a third lie on the degenerate locus ``a2 == a3 * b1``.
    """
    kind = draw(st.sampled_from(("free", "collision", "degenerate")))
    if kind == "degenerate":
        a3, b1 = Fraction(draw(st.integers(1, 4)), 8), Fraction(draw(st.integers(1, 7)), 8)
        a2 = a3 * b1
        a1 = 1 - a2 - a3
    else:
        d = draw(st.integers(3, 64))
        i = draw(st.integers(1, d - 2))
        j = draw(st.integers(1, d - 1 - i))
        a1, a2, a3 = Fraction(i, d), Fraction(j, d), Fraction(d - i - j, d)
        e = draw(st.integers(2, 64))
        b1 = Fraction(draw(st.integers(1, e - 1)), e)
        if kind == "collision":
            b1 = draw(st.sampled_from((a1, a2, a3)))
    return {(2, 1): 1, (1, 3): 1, **dict(zip(TWIN_EDGES, (a1, a2, a3, b1, 1 - b1)))}


class TestComparisonPolicy:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rational_twin_entries())
    def test_exact_chain_and_float_copy_agree(self, entries):
        base = counterexample_matrix()
        exact = GibbsChain.from_stochastic(base, entries)
        floating = GibbsChain.from_stochastic(base, {e: float(v) for e, v in entries.items()})
        assert (repr(exact), repr(floating)) == ("GibbsChain(n=4, exact)", "GibbsChain(n=4, numerical)")
        assert has_distinct_branch_values(exact) == has_distinct_branch_values(floating)
        if entries[(3, 2)] == entries[(4, 2)] * entries[(1, 4)]:
            with pytest.raises(DegenerateError, match=r"^a2 equals a3 \* b1; the twin"):
                spectral_twin_chain(exact)
            with pytest.raises(DegenerateError, match=r"^a2 equals a3 \* b1 within tolerance; the twin"):
                spectral_twin_chain(floating)
            return
        match_exact = _branch_value_sets_match(exact, spectral_twin_chain(exact))[0]
        assert _branch_value_sets_match(floating, spectral_twin_chain(floating))[0] == match_exact


class TestSpectralTwin:
    def test_fixture_columns(self, fixture_chain):
        twin = spectral_twin_chain(fixture_chain)
        assert np.allclose(twin.q[:, 1], [0.2, 0.0, 0.2, 0.6], atol=1e-12)
        assert np.allclose(twin.q[:, 3], [0.5, 0.5, 0.0, 0.0], atol=1e-12)

    def test_degenerate_rejected(self, four_matrix):
        chain = chain_with(four_matrix, 0.3, 0.2, 0.5, 0.4, 0.6)  # a2 == a3 * b1
        with pytest.raises(DegenerateError):
            spectral_twin_chain(chain)

    def test_wrong_base_rejected(self, full2):
        chain = GibbsChain.from_stochastic(
            full2, {(1, 1): 0.3, (2, 1): 0.7, (1, 2): 0.6, (2, 2): 0.4}
        )
        with pytest.raises(WrongBaseError):
            spectral_twin_chain(chain)

    def test_exact_columns_sum_to_one(self, four_matrix):
        values = {
            (2, 1): Fraction(1),
            (1, 3): Fraction(1),
            (1, 2): Fraction(1, 5),
            (3, 2): Fraction(3, 10),
            (4, 2): Fraction(1, 2),
            (1, 4): Fraction(2, 5),
            (2, 4): Fraction(3, 5),
        }
        twin = spectral_twin_chain(GibbsChain.from_stochastic(four_matrix, values))
        for col in range(1, 5):
            total = sum(v for (i, j), v in twin.exact.items() if j == col)
            assert total == 1

    def test_potential_level_interface(self, four_matrix):
        pot = Potential(four_matrix, {e: math.log(v) for e, v in FIXTURE_VALUES.items()})
        twin_pot = spectral_twin(pot)
        twin_chain, _ = normalize(twin_pot)
        assert twin_chain.value(3, 2) == pytest.approx(0.2, abs=1e-12)
        assert twin_chain.value(1, 4) == pytest.approx(0.5, abs=1e-12)


class TestCertificate:
    def test_fixture_verdict(self, fixture_chain):
        cert = snr_certificate(fixture_chain)
        assert cert.verdict
        assert cert.checks == {
            "f_in_g": True,
            "spectra_equal": True,
            "not_cohomologous": True,
            "aut_trivial": True,
            "e0_value_sets_differ": True,
        }
        assert cert.details["witness_cycle"] == (1, 3, 2, 1)
        assert cert.details["missing_from_g"] == (0.3, 0.4)
        assert cert.details["missing_from_f"] == ()
        assert cert.details["mode"] == "numerical"
        assert cert.details["tolerances"] == {
            "value_match": VALUE_MATCH_TOL,
            "char_poly_coefficients": CHAR_POLY_TOL,
            "cycle_sum": CYCLE_SUM_TOL,
        }
        assert np.array_equal(cert.twin.q, spectral_twin_chain(fixture_chain).q)

    def test_accepts_potential_input(self, four_matrix):
        pot = Potential(four_matrix, {e: math.log(v) for e, v in FIXTURE_VALUES.items()})
        assert snr_certificate(pot).verdict

    def test_exact_mode(self, four_matrix):
        values = {
            (2, 1): Fraction(1),
            (1, 3): Fraction(1),
            (1, 2): Fraction(1, 5),
            (3, 2): Fraction(3, 10),
            (4, 2): Fraction(1, 2),
            (1, 4): Fraction(2, 5),
            (2, 4): Fraction(3, 5),
        }
        cert = snr_certificate(GibbsChain.from_stochastic(four_matrix, values))
        assert cert.verdict
        assert cert.details["mode"] == "exact"
        assert cert.details["spectra_max_deviation"] == 0.0

    def test_degenerate_input_raises(self, four_matrix):
        chain = chain_with(four_matrix, 0.3, 0.2, 0.5, 0.4, 0.6)
        with pytest.raises(DegenerateError):
            snr_certificate(chain)

    def test_value_collision_fails_first_check(self, four_matrix):
        chain = chain_with(four_matrix, 0.4, 0.35, 0.25, 0.4, 0.6)  # a1 == b1
        cert = snr_certificate(chain)
        assert not cert.checks["f_in_g"]
        assert not cert.verdict

    def test_verdict_is_conjunction(self, fixture_chain):
        cert = snr_certificate(fixture_chain)
        for name in cert.checks:
            flipped = replace(cert, checks={**cert.checks, name: False})
            assert not flipped.verdict
