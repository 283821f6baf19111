"""Word reconstruction, induced conjugacies, and non-rigidity certificates.

A chain whose branch-edge values are pairwise distinct lets the sequence of
matrix entries read along a word be decoded back to the word itself.  That
decoding drives two constructions: a sliding block code between two chains
with matching branch-value sets, and, over one particular 4-symbol matrix,
an explicit companion potential with the same entropy spectrum that is
provably not isomorphic to the original.  The certificate bundles the
finite checks witnessing that phenomenon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateError,
    PreconditionError,
    ReconstructionError,
    WrongBaseError,
)
from .gibbs import NUMERICAL, Comparison, GibbsChain, Potential, chains_cohomologous, normalize
from .shiftcore import TransitionMatrix, _require_word_limit, admissible_words, automorphisms
from .spectrum import char_poly_family_equal
from .tolerances import CHAR_POLY_TOL, CYCLE_SUM_TOL, VALUE_MATCH_TOL

__all__ = [
    "BlockCode",
    "ConjugacyObstruction",
    "SNRCertificate",
    "VALUE_MATCH_TOL",
    "has_distinct_branch_values",
    "sampled_distinct_fraction",
    "reconstruct_word",
    "induce_conjugacy",
    "counterexample_matrix",
    "spectral_twin_chain",
    "spectral_twin",
    "snr_certificate",
]


def _is_one(x: float) -> bool:
    return abs(x - 1.0) <= VALUE_MATCH_TOL


def _branch_items(chain: GibbsChain) -> list:
    """(edge, entry) pairs over the branch edges, exact when available.

    Edges are ordered column by column (branch values are a per-column
    affair), which also fixes which colliding pair is reported first.
    """
    entries = chain.entries
    return [(e, entries[e]) for e in sorted(chain.structure.branch_edges, key=lambda e: (e[1], e[0]))]


def has_distinct_branch_values(chain: GibbsChain):
    """Whether the chain's branch-edge values are pairwise distinct.

    Returns ``(True, None)`` or ``(False, (edge, edge))`` with the first
    colliding pair in lexicographic order.  Distinct branch values are
    exactly what makes entry streams decodable back into words.
    """
    items = _branch_items(chain)
    same = Comparison.of(chain).same
    for b in range(len(items)):  # report the first edge duplicating an earlier one
        for a in range(b):
            if same(items[a][1], items[b][1]):
                return False, (items[a][0], items[b][0])
    return True, None


def sampled_distinct_fraction(matrix: TransitionMatrix, n_samples: int, seed: int = 0) -> float:
    """Fraction of random potentials whose chain has distinct branch values.

    Edge values are drawn independently and uniformly from [-1, 1]; the
    draw is fully determined by the seed.  Distinctness fails only on a
    null set of potentials, so the observed fraction sits at 1.0 for any
    reasonable sample size.
    """
    if n_samples < 1:
        raise PreconditionError("n_samples must be at least 1")
    rng = np.random.default_rng(seed)
    edges = matrix.edges
    draws = rng.uniform(-1.0, 1.0, size=(n_samples, len(edges)))
    hits = 0
    for row in draws:
        chain, _ = normalize(Potential(matrix, dict(zip(edges, row))))
        ok, _ = has_distinct_branch_values(chain)
        hits += ok
    return hits / n_samples


def _lookup(items, v: float) -> tuple:
    """The one branch edge whose value matches ``v``; a read stream compares numerically."""
    same = NUMERICAL.same
    matches = [e for e, bv in items if same(v, bv)]
    if len(matches) > 1:
        raise ReconstructionError("not_in_G", f"value {v} matches several branch edges")
    if not matches:
        raise ReconstructionError("no_match", f"value {v} matches no branch edge")
    return matches[0]


def _walk_back(chain: GibbsChain, items, vals) -> tuple:
    """The word of ``chain`` reading ``vals``, decoded from its last edge backwards.

    ``items`` are the chain's (branch edge, float value) pairs and
    ``vals[-1]`` must be a branch value.  Each earlier symbol is forced
    either by another branch lookup or, when the value is 1, by the unique
    predecessor; any other case raises :class:`ReconstructionError`.
    """
    edge = _lookup(items, vals[-1])
    reverse = [edge[1], edge[0]]
    for v in reversed(vals[:-1]):
        current = reverse[-1]
        if _is_one(v):
            preds = chain.base.predecessors(current)
            if len(preds) != 1:
                raise ReconstructionError(
                    "no_match", f"value 1 enters symbol {current}, which has several predecessors"
                )
            reverse.append(preds[0])
        else:
            edge = _lookup(items, v)
            if edge[1] != current:
                raise ReconstructionError(
                    "no_match", f"value {v} belongs to edge {edge}, which does not enter {current}"
                )
            reverse.append(edge[0])
    return tuple(reversed(reverse))


def reconstruct_word(chain: GibbsChain, values) -> tuple:
    """Decode a stream of chain entries back into the unique word reading it.

    ``values[k]`` must equal the chain entry on the word's k-th edge, and
    the final value must lie strictly inside (0, 1), i.e. the word must end
    at a branch symbol.  The terminal edge is found by value lookup among
    the branch edges; walking backwards, each earlier symbol is forced
    either by another branch lookup or, when the value is 1, by the unique
    predecessor.  Uniqueness needs pairwise distinct branch values.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise PreconditionError("value stream must be non-empty")
    ok, collision = has_distinct_branch_values(chain)
    if not ok:
        raise ReconstructionError(
            "not_in_G", f"branch values collide on {collision[0]} and {collision[1]}"
        )
    if _is_one(vals[-1]):
        raise ReconstructionError("bad_terminal", "final value equals 1; the word must end at a branch symbol")
    return _walk_back(chain, [(e, float(v)) for e, v in _branch_items(chain)], vals)


@dataclass(frozen=True)
class BlockCode:
    """A sliding map defined by a finite window.

    ``table`` sends every admissible source word of length ``window`` to
    one target symbol; applied along a longer word it produces the image
    word, shortened by ``window - 1`` symbols.
    """

    window: int
    table: dict

    def apply(self, word) -> tuple:
        w = tuple(int(s) for s in word)
        if len(w) < self.window:
            raise PreconditionError(f"word must have at least {self.window} symbols")
        return tuple(self.table[w[k : k + self.window]] for k in range(len(w) - self.window + 1))

    def is_identity(self) -> bool:
        return all(out == key[0] for key, out in self.table.items())


@dataclass(frozen=True)
class ConjugacyObstruction:
    """Why no induced conjugacy exists between two chains.

    ``kind`` is ``"value_set_mismatch"`` when the branch-value sets differ
    (then no isomorphism of the underlying systems exists at all) or
    ``"not_invertible"`` when the value pairing fails to produce a
    two-sided sliding code.
    """

    kind: str
    missing_from_target: tuple = ()
    missing_from_source: tuple = ()
    detail: str = ""


def _branch_value_sets_match(chain_a: GibbsChain, chain_b: GibbsChain):
    """Compare branch values as sets; returns (match, missing_from_b, missing_from_a)."""
    missing_b, missing_a = Comparison.of(chain_a, chain_b).unmatched(
        [v for _, v in _branch_items(chain_a)], [v for _, v in _branch_items(chain_b)]
    )
    return (not missing_a and not missing_b), missing_b, missing_a


def _decode_window(chain: GibbsChain):
    """Symbols a code needs to decode one target symbol, or None if unbounded.

    A stream read from a word is decoded from its first value other than 1,
    so the window is ``L + 2`` where ``L`` is the longest run of consecutive
    edges whose entry reads as 1.  These are the edges into in-degree-1
    symbols, and a branch edge only if its entry lies within
    ``VALUE_MATCH_TOL`` of 1.  Entries into a symbol sum to 1, so each
    symbol is entered by at most one such edge, and a run is found by
    following predecessors.  The run is acyclic and at most ``n - 1`` edges
    long, unless it reaches a cycle of such edges, as on ``[[1]]``; then no
    window decodes and None is returned.
    """
    pred = {j: i for i, j in chain.base.edges if _is_one(chain.q[i - 1, j - 1])}
    longest = 0
    for end in pred:
        run, symbol = 0, end
        while symbol in pred:
            run += 1
            symbol = pred[symbol]
            if run > chain.n:
                return None
        longest = max(longest, run)
    return longest + 2


def _build_code(source: GibbsChain, target: GibbsChain):
    """Sliding code on the decode window induced by matching entry values,
    or None on failure.

    Each source window word maps to the first symbol of the target word
    that reads its value stream up to the first value other than 1; the
    window guarantees that value is in the stream.
    """
    window = _decode_window(source)
    if window is None:
        return None
    items = [(e, float(v)) for e, v in _branch_items(target)]
    q = source.q
    table = {}
    for word in admissible_words(source.base, window):
        stream = [float(q[i - 1, j - 1]) for i, j in zip(word, word[1:])]
        first = next(k for k, v in enumerate(stream) if not _is_one(v))
        try:
            table[word] = _walk_back(target, items, stream[: first + 1])[0]
        except ReconstructionError:
            return None
    return BlockCode(window, table)


def _code_respects_edges(code: BlockCode, source: GibbsChain, target: GibbsChain) -> bool:
    for word in admissible_words(source.base, code.window + 1):
        image = code.apply(word)
        if not target.base.has_edge(image[0], image[1]):
            return False
    return True


def induce_conjugacy(chain_a: GibbsChain, chain_b: GibbsChain):
    """Construct the sliding-block conjugacy induced by matching entry values.

    Requires equally many branch edges on both sides and pairwise distinct
    branch values on the source.  If the branch-value sets differ (as
    sets), returns a ``value_set_mismatch`` obstruction: the two measure
    systems cannot be isomorphic.  Otherwise the forward code sends each
    source word of the decode window ``w_a`` to the target symbol its
    value stream forces, and the backward code does the same from the
    target with ``w_b``.  The decode window is ``L + 2``, where ``L`` is the
    longest run of consecutive edges with entry 1, which enter symbols of
    in-degree 1; it is at most ``n + 1`` (4 on the 4-symbol counterexample
    base, whose run is 2 -> 1 -> 3).  Both codes are verified to respect
    edges on all words of length ``w + 1``, and to invert each other on all
    words of length ``w_a + w_b`` on either side.  Any failure, including a
    chain with no decode window such as ``[[1]]``, returns a
    ``not_invertible`` obstruction.

    These checks give the verdicts that the same checks give with window
    ``n + 1``, edge words of length ``n + 2`` and round-trip words of length
    ``n_a + n_b + 2``.  Within any longer window, a code's image symbol
    depends only on the first ``w`` symbols, since the stream reaches a
    value other than 1 by then.  Every admissible word extends to a longer
    admissible word, because every symbol has a successor, and every prefix
    of one is admissible.  So each check on the longer words sees exactly
    the results of the check on their prefixes of the shorter length.

    The verified forward code is returned widened to window ``n_a + 1``,
    each admissible word of that length mapped as its first ``w_a``
    symbols are.  Word enumeration refuses more than
    :data:`~markovgibbs.shiftcore.WORD_LIMIT` words of one length with a
    :class:`PreconditionError`; the count for the widening is checked
    before any code is built, so a dense base (a 12-symbol full shift has
    ``12**13`` words of length 13) is refused at once.
    """
    st_a = chain_a.structure
    st_b = chain_b.structure
    if len(st_a.branch_edges) != len(st_b.branch_edges):
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
    window = chain_a.n + 1
    _require_word_limit(chain_a.base, window)
    forward = _build_code(chain_a, chain_b)
    if forward is None or not _code_respects_edges(forward, chain_a, chain_b):
        return ConjugacyObstruction("not_invertible", detail="no consistent sliding code exists")
    backward = _build_code(chain_b, chain_a)
    if backward is None or not _code_respects_edges(backward, chain_b, chain_a):
        return ConjugacyObstruction("not_invertible", detail="no consistent reverse code exists")
    probe = forward.window + backward.window
    for word in admissible_words(chain_a.base, probe):
        if backward.apply(forward.apply(word)) != word[:2]:
            return ConjugacyObstruction("not_invertible", detail="round trip fails on the source side")
    for word in admissible_words(chain_b.base, probe):
        if forward.apply(backward.apply(word)) != word[:2]:
            return ConjugacyObstruction("not_invertible", detail="round trip fails on the target side")
    table = {word: forward.table[word[: forward.window]] for word in admissible_words(chain_a.base, window)}
    return BlockCode(window, table)


_COUNTEREXAMPLE = TransitionMatrix(((0, 1, 1, 1), (1, 0, 0, 1), (0, 1, 0, 0), (0, 1, 0, 0)))


def counterexample_matrix() -> TransitionMatrix:
    """The 4-symbol primitive matrix carrying the spectral-twin construction.

    Every call returns the same shared instance, built once at import.  The
    matrix is immutable, so sharing it is safe, and what is derived from it
    (cycles, automorphisms, word tables) is computed once and kept for the
    life of the process.
    """
    return _COUNTEREXAMPLE


def _twin_parameters(chain: GibbsChain):
    """Column entries (a1, a2, a3, b1, b2) of a chain over the 4-symbol base."""
    if chain.base != counterexample_matrix():
        raise WrongBaseError("the spectral twin is defined over the dedicated 4-symbol matrix")
    e = chain.entries
    return e[(1, 2)], e[(3, 2)], e[(4, 2)], e[(1, 4)], e[(2, 4)]


def spectral_twin_chain(chain: GibbsChain) -> GibbsChain:
    """Companion chain with the same entropy spectrum but different dynamics.

    Over the dedicated 4-symbol matrix, the two three-edge cycle products
    of the input are swapped while both two-edge cycle products are kept,
    which leaves every characteristic polynomial of the powered family
    unchanged yet moves the measure whenever the products differ.  The
    input must satisfy ``a2 != a3 * b1`` (columns 2 and 4 entries as laid
    out in :func:`_twin_parameters`); equality is the degenerate locus
    where the construction returns the original measure.
    """
    a1, a2, a3, b1, b2 = _twin_parameters(chain)
    comparison = Comparison.of(chain)
    if comparison.same(a2, a3 * b1):
        within = "" if comparison.exact else " within tolerance"
        raise DegenerateError(f"a2 equals a3 * b1{within}; the twin would be cohomologous")
    c = 1 - a1 - a3 * b1
    entries = {
        (2, 1): 1,
        (1, 3): 1,
        (1, 2): a1,
        (3, 2): a3 * b1,
        (4, 2): c,
        (1, 4): a2 / c,
        (2, 4): a3 * b2 / c,
    }
    return GibbsChain.from_stochastic(chain.base, entries)


def spectral_twin(potential: Potential) -> Potential:
    """Potential of the spectral twin of ``normalize(potential)``."""
    chain, _ = normalize(potential)
    return spectral_twin_chain(chain).normalized_potential()


@dataclass(frozen=True)
class SNRCertificate:
    """Finite witness that equal entropy spectra do not force isomorphism.

    ``checks`` holds the five named boolean verifications; the verdict is
    their conjunction.  ``details`` carries the supporting data (witness
    cycle, value-set differences, deviations, tolerances).  ``twin`` is the
    chain of ``g``.
    """

    f: Potential
    g: Potential
    checks: dict
    details: dict
    twin: GibbsChain

    @property
    def verdict(self) -> bool:
        return all(self.checks.values())


def snr_certificate(source) -> SNRCertificate:
    """Build the spectral twin and verify the full non-rigidity argument.

    ``source`` is a potential or a chain over the dedicated 4-symbol
    matrix.  The certificate checks that (1) the branch values of the
    source are pairwise distinct, (2) the powered families of source and
    twin share all characteristic polynomials, hence entropy spectra, (3)
    the two normalized potentials are not cohomologous up to constants,
    with a witness cycle, (4) the shift admits no automorphism besides the
    identity, and (5) the branch-value sets differ, ruling out any
    isomorphism.  A true verdict certifies equal spectra without
    equivalence or isomorphism.
    """
    if isinstance(source, GibbsChain):
        chain_f = source
        f = chain_f.normalized_potential()
    else:
        chain_f = normalize(source)[0]
        f = source
    chain_g = spectral_twin_chain(chain_f)
    g = chain_g.normalized_potential()

    distinct, collision = has_distinct_branch_values(chain_f)
    spectra_equal, deviation = char_poly_family_equal(chain_f, chain_g, tol=CHAR_POLY_TOL)
    cohomologous, witness = chains_cohomologous(chain_f, chain_g)
    auto = automorphisms(chain_f.base)
    sets_match, missing_g, missing_f = _branch_value_sets_match(chain_f, chain_g)

    checks = {
        "f_in_g": distinct,
        "spectra_equal": spectra_equal,
        "not_cohomologous": not cohomologous,
        "aut_trivial": auto.trivial,
        "e0_value_sets_differ": not sets_match,
    }
    details = {
        "collision": collision,
        "spectra_max_deviation": deviation,
        "witness_cycle": witness,
        "automorphism_status": auto.status,
        "missing_from_g": tuple(float(v) for v in missing_g),
        "missing_from_f": tuple(float(v) for v in missing_f),
        "mode": Comparison.of(chain_f, chain_g).mode,
        "tolerances": {
            "value_match": VALUE_MATCH_TOL,
            "char_poly_coefficients": CHAR_POLY_TOL,
            "cycle_sum": CYCLE_SUM_TOL,
        },
    }
    return SNRCertificate(f, g, checks, details, chain_g)
