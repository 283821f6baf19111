"""Transition-matrix combinatorics for one-sided topological Markov shifts.

Symbols are 1-based throughout: a word over an ``n``-symbol alphabet is a
tuple of integers from ``{1, ..., n}``, and an edge ``(i, j)`` means that
symbol ``j`` may follow symbol ``i``.  Cycles are words whose first and last
symbols agree; a simple cycle repeats no interior symbol and is stored as
the rotation starting at its smallest symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

__all__ = [
    "TransitionMatrix",
    "ShiftStructure",
    "AutomorphismResult",
    "is_primitive",
    "require_primitive",
    "structure",
    "is_admissible",
    "admissible_words",
    "simple_cycles",
    "cycle_intersection_condition",
    "total_amalgamation",
    "automorphisms",
]

# The most words ``admissible_words`` builds in one call.  A million words of
# length L take 8 L MB as an integer array and several times that as tuples,
# so larger enumerations are refused up front instead of exhausting memory.
WORD_LIMIT = 1_000_000


class TransitionMatrix:
    """A zero-one transition matrix with every row and column occupied.

    The matrix is immutable after construction, so everything derived from
    it alone is computed at most once per instance and cached lazily on it:
    the edge list, the successor and predecessor tables, primitivity, the
    in-degree structure, the simple cycles, the automorphism result, the
    topological entropy and the word tables of each length built so far.
    """

    def __init__(self, entries):
        a = np.asarray(entries, dtype=np.int64)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise PreconditionError("transition matrix must be square and non-empty")
        if not np.isin(a, (0, 1)).all():
            raise PreconditionError("transition matrix entries must be 0 or 1")
        if (a.sum(axis=1) == 0).any():
            raise PreconditionError("every symbol needs at least one outgoing edge")
        if (a.sum(axis=0) == 0).any():
            raise PreconditionError("every symbol needs at least one incoming edge")
        a.setflags(write=False)
        self.entries = a
        self.n = int(a.shape[0])
        self._primitive = None
        self._structure = None
        self._entropy = None
        self._edges = None
        self._succ = None
        self._pred = None
        self._cycles = None
        self._automorphisms = None
        self._words = {}

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, TransitionMatrix):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash((self.n, self.entries.tobytes()))

    def __repr__(self):
        rows = ",".join("".join(str(x) for x in row) for row in self.entries)
        return f"TransitionMatrix({self.n}x{self.n}: {rows})"

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.entries[i - 1, j - 1])

    @property
    def edges(self) -> tuple:
        """All edges ``(i, j)`` in lexicographic order."""
        if self._edges is None:
            rows, cols = np.nonzero(self.entries)
            self._edges = tuple((int(i) + 1, int(j) + 1) for i, j in zip(rows, cols))
        return self._edges

    def successors(self, i: int) -> tuple:
        if self._succ is None:
            self._succ = tuple(
                tuple(int(j) + 1 for j in np.nonzero(self.entries[k])[0])
                for k in range(self.n)
            )
        return self._succ[i - 1]

    def predecessors(self, j: int) -> tuple:
        if self._pred is None:
            self._pred = tuple(
                tuple(int(i) + 1 for i in np.nonzero(self.entries[:, k])[0])
                for k in range(self.n)
            )
        return self._pred[j - 1]


@dataclass(frozen=True)
class ShiftStructure:
    """In-degree data of a transition matrix.

    ``branch_symbols`` are the symbols with at least two incoming edges and
    ``branch_edges`` the edges that land on them; these are exactly the
    places where a column-stochastic matrix supported on the shift carries
    values strictly between 0 and 1.
    """

    in_degrees: tuple
    branch_symbols: frozenset
    branch_edges: frozenset
    edges: tuple


@dataclass(frozen=True)
class AutomorphismResult:
    """Outcome of the symbol-permutation search.

    ``status`` is ``"trivial"`` when the graph group is the identity alone
    and the matrix equals its own total amalgamation, in which case the
    shift itself has no automorphism besides the identity.  Otherwise the
    status is ``"inconclusive"`` and ``permutations`` still lists the full
    graph group.
    """

    status: str
    permutations: tuple

    @property
    def trivial(self) -> bool:
        return self.status == "trivial"


def is_primitive(matrix: TransitionMatrix) -> bool:
    """Whether some power of the matrix is entrywise positive.

    Checks boolean powers up to the sharp exponent bound
    ``n**2 - 2*n + 2``; all arithmetic is exact integer work.
    """
    if matrix._primitive is None:
        m = matrix.entries
        power = m
        bound = matrix.n * matrix.n - 2 * matrix.n + 2
        result = False
        for _ in range(bound):
            if power.min() > 0:
                result = True
                break
            power = np.minimum(power @ m, 1)
        matrix._primitive = result
    return matrix._primitive


def require_primitive(matrix: TransitionMatrix) -> None:
    if not is_primitive(matrix):
        raise PreconditionError("transition matrix is not primitive")


def structure(matrix: TransitionMatrix) -> ShiftStructure:
    """In-degrees, branch symbols, and branch edges of a primitive matrix."""
    require_primitive(matrix)
    if matrix._structure is None:
        degrees = tuple(int(d) for d in matrix.entries.sum(axis=0))
        branch = frozenset(j + 1 for j, d in enumerate(degrees) if d >= 2)
        edges = matrix.edges
        branch_edges = frozenset(e for e in edges if e[1] in branch)
        matrix._structure = ShiftStructure(degrees, branch, branch_edges, edges)
    return matrix._structure


def is_admissible(matrix: TransitionMatrix, word) -> bool:
    """Whether every adjacent pair of the word is an edge.

    Words of length 0 or 1 are admissible; symbols outside the alphabet
    make a word inadmissible.
    """
    w = tuple(int(s) for s in word)
    if any(s < 1 or s > matrix.n for s in w):
        return False
    return all(matrix.entries[i - 1, j - 1] == 1 for i, j in zip(w, w[1:]))


def _word_rows(matrix: TransitionMatrix, length: int) -> np.ndarray:
    """Admissible words of a given length as a lexicographically sorted
    integer array of shape (count, length)."""
    cached = matrix._words.get(length)
    if cached is not None:
        return cached
    if length == 0:
        rows = np.zeros((1, 0), dtype=np.int64)
    elif length == 1:
        rows = np.arange(1, matrix.n + 1, dtype=np.int64)[:, None]
    else:
        prev = _word_rows(matrix, length - 1)
        succ = [np.asarray(matrix.successors(s), dtype=np.int64) for s in range(1, matrix.n + 1)]
        counts = np.array([len(succ[s - 1]) for s in prev[:, -1]])
        repeat = np.repeat(np.arange(len(prev)), counts)
        tails = np.concatenate([succ[s - 1] for s in prev[:, -1]])
        rows = np.hstack([prev[repeat], tails[:, None]])
    rows.setflags(write=False)
    matrix._words[length] = rows
    return rows


def _word_count(matrix: TransitionMatrix, length: int) -> int:
    """Exact number of admissible words of the given length.

    This is the entry sum of ``A**(length - 1)``, computed in Python
    integers so that it never overflows.
    """
    if length == 0:
        return 1
    succ = [matrix.successors(i) for i in range(1, matrix.n + 1)]
    ends = [1] * matrix.n  # words of the current length starting at each symbol
    for _ in range(length - 1):
        ends = [sum(ends[j - 1] for j in row) for row in succ]
    return sum(ends)


def _require_word_limit(matrix: TransitionMatrix, length: int) -> None:
    """Raise :class:`PreconditionError` if more than ``WORD_LIMIT`` words
    of the given length are admissible and not built yet."""
    if length in matrix._words:
        return
    count = _word_count(matrix, length)
    if count > WORD_LIMIT:
        raise PreconditionError(
            f"{count} admissible words of length {length} exceed the limit of {WORD_LIMIT}"
        )


def admissible_words(matrix: TransitionMatrix, length: int) -> list:
    """All admissible words of the given length, lexicographically sorted.

    Length 0 yields the singleton list containing the empty word.  Raises
    :class:`PreconditionError`, before building anything, when there are
    more than ``WORD_LIMIT`` such words.
    """
    if length < 0:
        raise PreconditionError("word length must be non-negative")
    _require_word_limit(matrix, length)
    return [tuple(int(s) for s in row) for row in _word_rows(matrix, length)]


def simple_cycles(matrix: TransitionMatrix) -> tuple:
    """All simple cycles up to rotation, each starting at its smallest symbol.

    A cycle of k distinct symbols is returned as a word of length k + 1
    whose first and last symbols agree (a self loop at ``i`` is ``(i, i)``).
    Enumeration is a depth-first search restricted, for each start symbol,
    to strictly larger interior symbols, so each rotation class is produced
    exactly once.
    """
    require_primitive(matrix)
    if matrix._cycles is not None:
        return matrix._cycles
    found = []
    for start in range(1, matrix.n + 1):
        path = [start]
        on_path = {start}
        stack = [iter(matrix.successors(start))]
        while stack:
            pushed = False
            for nxt in stack[-1]:
                if nxt == start:
                    found.append(tuple(path) + (start,))
                elif nxt > start and nxt not in on_path:
                    path.append(nxt)
                    on_path.add(nxt)
                    stack.append(iter(matrix.successors(nxt)))
                    pushed = True
                    break
            if not pushed:
                stack.pop()
                on_path.discard(path.pop())
    matrix._cycles = tuple(sorted(found))
    return matrix._cycles


def cycle_intersection_condition(matrix: TransitionMatrix):
    """Check that all simple cycles pairwise intersect with balanced lengths.

    Returns ``(holds, violations)`` where ``holds`` is true iff every
    ordered pair of simple cycles shares at least one symbol and has an
    edge-count ratio strictly below 2.  ``violations`` lists the offending
    ordered pairs.
    """
    cycles = simple_cycles(matrix)
    violations = []
    for first in cycles:
        for second in cycles:
            shares = bool(set(first) & set(second))
            ratio = (len(first) - 1) / (len(second) - 1)
            if not shares or ratio >= 2:
                violations.append((first, second))
    return (not violations, tuple(violations))


def total_amalgamation(matrix: TransitionMatrix):
    """Iteratively merge symbols with identical columns until none remain.

    Two symbols with the same incoming-edge column are collapsed into one;
    the merged symbol keeps the common column and the entrywise OR of the
    two outgoing rows.  Returns the fixed point together with the map from
    original symbols to symbols of the reduced matrix.
    """
    require_primitive(matrix)
    current = matrix.entries.copy()
    groups = [[s] for s in range(1, matrix.n + 1)]
    merged = True
    while merged:
        merged = False
        k = current.shape[0]
        for a in range(k):
            for b in range(a + 1, k):
                if np.array_equal(current[:, a], current[:, b]):
                    current[a] = np.maximum(current[a], current[b])
                    current = np.delete(np.delete(current, b, axis=0), b, axis=1)
                    groups[a].extend(groups.pop(b))
                    merged = True
                    break
            if merged:
                break
    reduced = TransitionMatrix(current)
    mapping = {orig: new + 1 for new, grp in enumerate(groups) for orig in grp}
    return reduced, mapping


def _graph_automorphisms(matrix: TransitionMatrix) -> list:
    """Symbol permutations ``p`` with ``A[p(i), p(j)] == A[i, j]``, sorted.

    Backtracking assigns the images of symbols ``1, 2, ...`` in turn, each
    within its (out-degree, in-degree) class, and keeps a partial
    assignment only while it preserves adjacency, both ways, between the
    new symbol and those assigned before it.  A complete assignment then
    preserves every off-diagonal entry, and equal out-degrees force the
    diagonal to agree too.  Images are tried in increasing order, so
    permutations come out lexicographically sorted.
    """
    a = matrix.entries.tolist()
    n = matrix.n
    signature = [(sum(a[s]), sum(row[s] for row in a)) for s in range(n)]
    image = [0] * n
    used = [False] * n
    found = []

    def extend(s):
        if s == n:
            found.append(tuple(t + 1 for t in image))
            return
        for t in range(n):
            if used[t] or signature[t] != signature[s]:
                continue
            if any(a[t][image[r]] != a[s][r] or a[image[r]][t] != a[r][s] for r in range(s)):
                continue
            image[s] = t
            used[t] = True
            extend(s + 1)
            used[t] = False

    extend(0)
    return found


def automorphisms(matrix: TransitionMatrix) -> AutomorphismResult:
    """Search for symbol permutations preserving the matrix.

    The graph group is found by backtracking over partial assignments
    within (out-degree, in-degree) classes (see :func:`_graph_automorphisms`)
    and is cached on the matrix.  When the graph group is the identity
    alone and the total amalgamation leaves the matrix unchanged, the shift
    has no automorphism besides the identity and the result is tagged
    ``"trivial"``; in every other case the graph group is returned tagged
    ``"inconclusive"``, since graph symmetry alone does not settle the
    question for the shift.
    """
    require_primitive(matrix)
    if matrix._automorphisms is not None:
        return matrix._automorphisms
    if matrix.n > 10:
        raise PreconditionError("automorphism search is limited to 10 symbols")
    perms = _graph_automorphisms(matrix)
    reduced, _ = total_amalgamation(matrix)
    amalgamation_fixed = reduced.n == matrix.n
    status = "trivial" if (amalgamation_fixed and len(perms) == 1) else "inconclusive"
    matrix._automorphisms = AutomorphismResult(status, tuple(perms))
    return matrix._automorphisms
