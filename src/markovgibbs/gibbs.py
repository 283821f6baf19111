"""Perron eigendata, stochasticization, and exact cylinder measures.

An edge potential assigns a real value to every edge of a primitive
transition matrix.  Its weight matrix ``exp(values)`` has a unique dominant
positive eigenvalue (the Perron root); dividing out the root and the left
eigenvector produces a column-stochastic matrix ``Q`` whose entries are the
exponentials of the normalized potential.  Together with its stationary
vector, ``Q`` evaluates the Gibbs measure of the potential on cylinder sets
in closed form.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import PreconditionError, SolverError
from .shiftcore import (
    TransitionMatrix,
    ShiftStructure,
    is_admissible,
    require_primitive,
    simple_cycles,
    structure,
)
from .tolerances import COLUMN_SUM_TOL, CYCLE_SUM_TOL, RESIDUAL_TOL, VALUE_MATCH_TOL

__all__ = [
    "Potential",
    "PerronData",
    "GibbsChain",
    "weight_matrix",
    "perron",
    "normalize",
    "cylinder_measure",
    "gibbs_ratio_bounds",
    "ks_entropy",
    "cycle_sum",
    "chains_cohomologous",
    "cohomologous_with_constant",
]


class Potential:
    """Real values attached to the edges of a transition matrix.

    Models a function of one-sided sequences that depends only on the first
    two symbols: ``values[(i, j)]`` is the value on the cylinder of
    sequences starting ``i, j``.  Exactly the edges of the base matrix must
    carry values.
    """

    def __init__(self, base: TransitionMatrix, values):
        vals = {(int(i), int(j)): float(v) for (i, j), v in dict(values).items()}
        edges = set(base.edges)
        missing = edges - set(vals)
        extra = set(vals) - edges
        if missing or extra:
            raise PreconditionError(
                f"potential must be defined exactly on the edges; "
                f"missing {sorted(missing)}, extraneous {sorted(extra)}"
            )
        if not all(math.isfinite(v) for v in vals.values()):
            raise PreconditionError("potential values must be finite")
        self.base = base
        self.values = {e: vals[e] for e in base.edges}

    @classmethod
    def constant(cls, base: TransitionMatrix, value: float) -> "Potential":
        return cls(base, {e: value for e in base.edges})

    @classmethod
    def from_matrix(cls, base: TransitionMatrix, matrix) -> "Potential":
        """Pick edge values out of a dense array; off-edge cells are ignored."""
        values = {}
        for i, j in base.edges:
            cell = matrix[i - 1][j - 1]
            if cell is None:
                raise PreconditionError(f"missing potential value on edge ({i}, {j})")
            values[(i, j)] = float(cell)
        return cls(base, values)

    def __getitem__(self, edge):
        return self.values[edge]

    def __repr__(self):
        return f"Potential(n={self.base.n}, {len(self.values)} edges)"


@dataclass(frozen=True)
class PerronData:
    """Dominant eigendata of a non-negative matrix.

    ``left`` is normalized to sum 1 and ``right`` scaled so that
    ``left @ right == 1``; both are entrywise positive.  ``residual`` is the
    larger achieved eigen-residual relative to the root (see :func:`perron`)
    and ``gap`` is ``1 - |lambda_2| / root``.  For a stack of matrices each
    field gains a leading axis indexing the members.
    """

    root: float
    left: np.ndarray
    right: np.ndarray
    residual: float
    gap: float


def weight_matrix(potential: Potential) -> np.ndarray:
    """Entrywise exponential of the potential, zero off the edges."""
    n = potential.base.n
    out = np.zeros((n, n))
    for (i, j), v in potential.values.items():
        out[i - 1, j - 1] = math.exp(v)
    return out


def _fail_first(failed: np.ndarray, k: int, describe, stacked: bool) -> None:
    """Raise :class:`SolverError` for the first of ``k`` stack members flagged in ``failed``.

    ``failed`` holds one flag per member, possibly repeated for the
    transposed stack after it; ``describe`` gets the first flagged position.
    """
    if failed.any():
        flags = failed.reshape(-1, k)
        member = int(flags.any(axis=0).argmax())
        message = describe(int(flags[:, member].argmax()) * k + member)
        raise SolverError(f"stack member {member}: {message}" if stacked else message)


def _linalg(solve, what: str, k: int, stacked: bool, *stacks):
    """``solve(*stacks)``; a ``LinAlgError`` becomes :class:`SolverError` on the first member failing alone."""
    try:
        return solve(*stacks)
    except np.linalg.LinAlgError as exc:
        failed = np.zeros(len(stacks[0]), dtype=bool)
        for i in range(len(failed)):
            try:
                solve(*(s[i : i + 1] for s in stacks))
            except np.linalg.LinAlgError:
                failed[i] = True
        _fail_first(failed, k, lambda i: f"{what} failed: {exc}", stacked)
        raise SolverError(f"{what} failed: {exc}") from exc


def _dominant(m: np.ndarray, stacked: bool):
    """Dominant eigenpairs of ``k`` matrices followed by their ``k`` transposes.

    Returns the roots, the vectors scaled to sum 1 and the largest other
    eigenvalue moduli, one row per matrix.  ``np.linalg.eig`` alone can
    leave residuals above ``RESIDUAL_TOL`` of the root on strongly graded
    matrices, so one Newton step on the bordered system
    ``[[m - root*I, -v], [1, 0]]`` polishes each pair.
    """
    count, n = len(m), m.shape[1]
    k = count // 2
    values, vectors = _linalg(np.linalg.eig, "eigensolve", k, stacked, m)
    rows = np.arange(count)
    top = values.real.argmax(axis=1)
    lead = values[rows, top]
    root = lead.real
    positive = (lead.imag == 0) & (root > 0)
    _fail_first(~positive, k, lambda i: f"dominant eigenvalue {lead[i]} is not real and positive", stacked)
    near = np.abs(values - root[:, None]) <= RESIDUAL_TOL * root[:, None]
    _fail_first(near.sum(axis=1) > 1, k, lambda i: f"dominant eigenvalue {root[i]} is not simple", stacked)
    vector = vectors[rows, :, top].real
    vector = vector / vector.sum(axis=1, keepdims=True)
    border = np.ones((count, n + 1, n + 1))
    border[:, :n, :n] = m - root[:, None, None] * np.eye(n)
    border[:, :n, n] = -vector
    border[:, n, n] = 0.0
    rhs = np.zeros((count, n + 1, 1))
    rhs[:, :n, 0] = root[:, None] * vector - (m @ vector[:, :, None])[:, :, 0]
    step = _linalg(np.linalg.solve, "Newton step", k, stacked, border, rhs)[:, :, 0]
    vector += step[:, :n]
    _fail_first(~(vector.min(axis=1) > 0), k, lambda i: "eigenvectors are not strictly positive", stacked)
    moduli = np.abs(values)
    moduli[rows, top] = 0.0
    return root + step[:, n], vector, moduli.max(axis=1)


def perron(matrix) -> PerronData:
    """Perron root, positive left/right eigenvectors, residual and gap.

    ``matrix`` is one ``(n, n)`` matrix or a ``(k, n, n)`` stack; a single
    matrix is solved as a stack of one.  One ``np.linalg.eig`` of the stack
    next to its transposes gives the right and left dominant pairs, each
    polished by one Newton step (one batched ``np.linalg.solve``); the root
    is the Rayleigh quotient ``u @ M @ v / (u @ v)`` with ``u``, ``v`` the
    left and right vectors scaled to sum 1.  The contract is checked for
    every member: :class:`SolverError` is raised when the eigenvalue of
    largest real part is not real, positive and simple (no other eigenvalue
    within ``RESIDUAL_TOL * root``), when the two solves' roots differ by
    more than ``RESIDUAL_TOL * root``, when either vector is not strictly
    positive, or when ``max|u @ M - root * u|`` or ``max|M @ v - root * v|``
    exceeds ``RESIDUAL_TOL * root``.  Reducible matrices fail one of these
    checks.  For a stack, the message names the first member failing the
    earliest failed check.  Non-square input, and negative or non-finite
    entries or an empty row or column, raise :class:`PreconditionError`.

    For a single matrix the fields are floats and read-only 1-D arrays; for
    a stack each field gains a leading axis of length ``k``.
    """
    m = np.asarray(matrix, dtype=float)
    stacked = m.ndim == 3
    if not stacked:
        m = m[None]
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise PreconditionError("matrix must be square")
    if not (np.isfinite(m).all() and (m >= 0).all() and m.sum(axis=1).all() and m.sum(axis=2).all()):
        raise PreconditionError("matrix must be finite and non-negative with no zero row or column")
    k = len(m)
    roots, vectors, moduli = _dominant(np.concatenate((m, m.transpose(0, 2, 1))), stacked)
    right_root, left_root, v, u, second = roots[:k], roots[k:], vectors[:k], vectors[k:], moduli[:k]
    _fail_first(
        np.abs(left_root - right_root) > RESIDUAL_TOL * right_root,
        k,
        lambda i: f"left and right eigensolves found roots {left_root[i]} and {right_root[i]}",
        stacked,
    )
    um = (u[:, None, :] @ m)[:, 0]
    mv = (m @ v[:, :, None])[:, :, 0]
    uv = (u * v).sum(axis=1)
    root = (um * v).sum(axis=1) / uv
    left_residual = np.abs(um - root[:, None] * u).max(axis=1)
    residual = np.maximum(left_residual, np.abs(mv - root[:, None] * v).max(axis=1)) / root
    _fail_first(
        residual > RESIDUAL_TOL,
        k,
        lambda i: f"eigen-residual {residual[i]:.3g} exceeds {RESIDUAL_TOL:.3g} of the root",
        stacked,
    )
    right = v / uv[:, None]
    gap = 1.0 - second / root
    for field in (u, right, root, residual, gap):
        field.setflags(write=False)
    if stacked:
        return PerronData(root, u, right, residual, gap)
    return PerronData(float(root[0]), u[0], right[0], float(residual[0]), float(gap[0]))


@dataclass(frozen=True)
class Comparison:
    """Exact (``==``) or numerical (relative ``VALUE_MATCH_TOL``) comparison of chain entries.

    :meth:`of` decides once per operation, from every chain taking part: exact only when all carry Fractions.
    """

    exact: bool
    mode: str
    same: Callable

    @staticmethod
    def of(*chains) -> "Comparison":
        return EXACT if all(chain.exact is not None for chain in chains) else NUMERICAL

    def unmatched(self, xs, ys):
        """Sorted values of ``xs`` matching none of ``ys``, and the reverse; one per run that ``same`` joins."""
        if self.exact:
            xs, ys = set(xs), set(ys)
            return tuple(sorted(xs - ys)), tuple(sorted(ys - xs))
        xs, ys = self._distinct(xs), self._distinct(ys)
        only_x = tuple(x for x in xs if not any(self.same(x, y) for y in ys))
        only_y = tuple(y for y in ys if not any(self.same(y, x) for x in xs))
        return only_x, only_y

    def _distinct(self, values) -> list:
        values = sorted(float(v) for v in values)
        return [v for k, v in enumerate(values) if k == 0 or not self.same(values[k - 1], v)]


EXACT = Comparison(True, "exact", operator.eq)
NUMERICAL = Comparison(False, "numerical", lambda x, y: abs(x - y) <= VALUE_MATCH_TOL * max(abs(x), abs(y)))


class GibbsChain:
    """Column-stochastic matrix of a Gibbs measure plus its stationary vector.

    ``q[i-1, j-1]`` is positive exactly on the edges and each column sums
    to 1; ``pi`` solves ``q @ pi == pi`` with positive entries summing to 1
    and equals the measure of the length-1 cylinders.  ``exact``, when
    present, holds the same entries as :class:`~fractions.Fraction` values
    keyed by edge, enabling exact comparisons downstream.
    """

    def __init__(self, base: TransitionMatrix, q: np.ndarray, pi: np.ndarray, exact=None):
        require_primitive(base)
        q = np.asarray(q, dtype=float)
        pi = np.asarray(pi, dtype=float)
        mask = base.entries == 1
        if q.shape != (base.n, base.n):
            raise PreconditionError("stochastic matrix has the wrong shape")
        if (q[~mask] != 0).any():
            raise PreconditionError("stochastic matrix must vanish off the edges")
        if (q[mask] <= 0).any() or (q[mask] > 1).any():
            raise PreconditionError("edge entries must lie in (0, 1]")
        if np.abs(q.sum(axis=0) - 1.0).max() > COLUMN_SUM_TOL:
            raise PreconditionError("columns must sum to 1")
        if pi.shape != (base.n,) or pi.min() <= 0:
            raise PreconditionError("stationary vector must be positive")
        q.setflags(write=False)
        pi.setflags(write=False)
        self.base = base
        self.q = q
        self.pi = pi
        self.exact = None if exact is None else dict(exact)

    @classmethod
    def from_stochastic(cls, base: TransitionMatrix, entries) -> "GibbsChain":
        """Build a chain directly from column-stochastic edge entries.

        ``entries`` maps edges to values.  If every value is rational
        (:class:`~fractions.Fraction` or int), column sums must equal 1
        exactly and the exact entries are retained; float input is accepted
        with column sums within ``COLUMN_SUM_TOL`` of 1 and rescaled to
        machine-exact stochasticity.
        """
        require_primitive(base)
        vals = {(int(i), int(j)): v for (i, j), v in dict(entries).items()}
        if set(vals) != set(base.edges):
            raise PreconditionError("entries must be given exactly on the edges")
        exact = None
        if all(isinstance(v, (Fraction, int, numbers.Integral)) for v in vals.values()):
            exact = {e: Fraction(v) for e, v in vals.items()}
            if any(v <= 0 for v in exact.values()):
                raise PreconditionError("edge entries must be positive")
            sums = [Fraction(0)] * base.n
            for (_, j), v in exact.items():
                sums[j - 1] += v
            for col, s in enumerate(sums, start=1):
                if s != 1:
                    raise PreconditionError(f"column {col} sums to {s}, expected exactly 1")
        q = np.zeros((base.n, base.n))
        for (i, j), v in vals.items():
            q[i - 1, j - 1] = float(v)
        if exact is None:
            sums = q.sum(axis=0)
            if np.abs(sums - 1.0).max() > COLUMN_SUM_TOL:
                raise PreconditionError(f"columns must sum to 1 within {COLUMN_SUM_TOL:.3g}")
            q = q / sums
        pi = _stationary(q)
        return cls(base, q, pi, exact)

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def edge_mask(self) -> np.ndarray:
        return self.base.entries == 1

    @property
    def structure(self) -> ShiftStructure:
        return structure(self.base)

    def value(self, i: int, j: int) -> float:
        if not self.base.has_edge(i, j):
            raise PreconditionError(f"({i}, {j}) is not an edge")
        return float(self.q[i - 1, j - 1])

    @cached_property
    def entries(self) -> dict:
        """Entry on each edge: the exact Fraction when present, else the float."""
        if self.exact is not None:
            return self.exact
        return {(i, j): float(self.q[i - 1, j - 1]) for i, j in self.base.edges}

    def normalized_potential(self) -> Potential:
        """The potential ``log q`` on edges; its stochasticization is the chain itself."""
        return Potential(self.base, {e: math.log(self.q[e[0] - 1, e[1] - 1]) for e in self.base.edges})

    def __repr__(self):
        return f"GibbsChain(n={self.n}, {Comparison.of(self).mode})"


def _stationary(q: np.ndarray) -> np.ndarray:
    """Positive solution of q @ pi == pi with entries summing to 1."""
    n = q.shape[0]
    pi, *_ = np.linalg.lstsq(np.vstack([q - np.eye(n), np.ones((1, n))]), np.eye(n + 1)[-1], rcond=None)
    return _checked_stationary(q, pi / pi.sum())


def _checked_stationary(q: np.ndarray, pi: np.ndarray) -> np.ndarray:
    if pi.min() <= 0:
        raise SolverError("stationary vector is not strictly positive")
    if np.abs(q @ pi - pi).max() > RESIDUAL_TOL:
        raise SolverError(f"stationary vector residual exceeds {RESIDUAL_TOL:.3g}")
    return pi


def normalize(potential: Potential):
    """Stochasticize a potential.

    Returns ``(chain, perron_data)`` where the chain's matrix is
    ``root**-1 * left[i] * exp(values[i, j]) / left[j]`` on edges.  Columns
    are rescaled to machine-exact stochasticity (the drift is at the
    eigensolver residual scale, well below every comparison tolerance
    used).  The stationary vector is Parry's ``left * right``.  The solve
    runs on ``exp(values - max(values))``, so any finite potential works;
    the root reported is its root times ``exp(max)`` (``0`` or ``inf`` past
    float range).  Normalizing the chain's own normalized potential
    reproduces the same matrix with root 1 and uniform left eigenvector.
    """
    require_primitive(potential.base)
    top = max(potential.values.values())
    m = weight_matrix(Potential(potential.base, {e: v - top for e, v in potential.values.items()}))
    data = perron(m)
    q = (data.left[:, None] * m / data.left[None, :]) / data.root
    q = q / q.sum(axis=0)
    pi = _checked_stationary(q, data.left * data.right)
    with np.errstate(over="ignore"):
        root = float(data.root * np.exp(top))
    return GibbsChain(potential.base, q, pi), replace(data, root=root)


def cylinder_measure(chain: GibbsChain, word) -> float:
    """Measure of the set of sequences starting with the given word.

    The closed form is the product of the chain entries along the word's
    edges times the stationary mass of the final symbol.  The empty word
    has measure 1; inadmissible words have measure 0.
    """
    w = tuple(int(s) for s in word)
    if not w:
        return 1.0
    if not is_admissible(chain.base, w):
        return 0.0
    product = 1.0
    for i, j in zip(w, w[1:]):
        product *= chain.q[i - 1, j - 1]
    return product * float(chain.pi[w[-1] - 1])


def gibbs_ratio_bounds(chain: GibbsChain, potential: Potential, pressure: float, max_len: int = 10):
    """Extrema of measure-to-Birkhoff-weight ratios over short cylinders.

    For each admissible word ``w`` of length up to ``max_len`` the ratio
    ``mu([w]) / exp(-|w| * pressure + S)`` is bracketed, where ``S`` sums
    the potential along the word's own edges plus one continuation term for
    the final symbol, taken maximal for the lower bound and minimal for the
    upper bound.  Finite positive output certifies the defining Gibbs
    inequalities at the explored depth.  No word is built: the log ratio sums
    ``log q - f`` over the word's edges plus terms in its last symbol and
    length, so one (min, +) and one (max, +) vector-matrix product per length
    give the extremes by last symbol, in O(n**2 * max_len) time.
    """
    if potential.base != chain.base:
        raise PreconditionError("potential and chain must share the base matrix")
    if max_len < 1:
        raise PreconditionError("max_len must be at least 1")
    mask = chain.edge_mask
    f = np.zeros(mask.shape)
    for (i, j), v in potential.values.items():
        f[i - 1, j - 1] = v
    step = np.log(np.where(mask, chain.q, 1.0)) - f
    low_step, high_step = np.where(mask, step, np.inf), np.where(mask, step, -np.inf)
    low_tail = np.log(chain.pi) - np.where(mask, f, -np.inf).max(axis=1)
    high_tail = np.log(chain.pi) - np.where(mask, f, np.inf).min(axis=1)
    low = high = np.zeros(len(mask))  # extreme edge sums over the words of one length, by last symbol
    lo, hi = math.inf, -math.inf
    for length in range(1, max_len + 1):
        lo = min(lo, float((low + low_tail).min()) + length * pressure)
        hi = max(hi, float((high + high_tail).max()) + length * pressure)
        low = (low[:, None] + low_step).min(axis=0)
        high = (high[:, None] + high_step).max(axis=0)
    with np.errstate(over="ignore"):
        return float(np.exp(lo)), float(np.exp(hi))


def ks_entropy(chain: GibbsChain) -> float:
    """Entropy of the stationary chain, in nats per symbol.

    Computes ``-sum over edges of pi[j] * q[i, j] * log q[i, j]``; edges
    carrying the value 1 contribute nothing.
    """
    mask = chain.edge_mask
    q = chain.q
    logq = np.zeros_like(q)
    logq[mask] = np.log(q[mask])
    return float(-(q * logq * chain.pi[None, :])[mask].sum())


def cycle_sum(chain: GibbsChain, cycle) -> float:
    """Sum of the normalized potential (log of chain entries) along a cycle."""
    w = tuple(int(s) for s in cycle)
    if len(w) < 2 or w[0] != w[-1]:
        raise PreconditionError("cycle must close up: first and last symbols equal")
    if not is_admissible(chain.base, w):
        raise PreconditionError(f"cycle {w} is not admissible")
    return float(sum(math.log(chain.q[i - 1, j - 1]) for i, j in zip(w, w[1:])))


def chains_cohomologous(chain_a: GibbsChain, chain_b: GibbsChain):
    """Compare cycle sums of two chains over every simple cycle.

    Two potentials differ by a coboundary plus a constant exactly when
    their normalized versions agree on all cycle sums, and sums over simple
    cycles generate all of them.  Returns ``(True, None)`` or ``(False,
    witness_cycle)``.  When both chains carry exact entries the comparison
    is exact.
    """
    if chain_a.base != chain_b.base:
        raise PreconditionError("chains must share the base matrix")
    exact = Comparison.of(chain_a, chain_b).exact
    for cycle in simple_cycles(chain_a.base):
        if exact:
            prod_a = math.prod((chain_a.entries[(i, j)] for i, j in zip(cycle, cycle[1:])), start=Fraction(1))
            prod_b = math.prod((chain_b.entries[(i, j)] for i, j in zip(cycle, cycle[1:])), start=Fraction(1))
            if prod_a != prod_b:
                return False, cycle
        elif abs(cycle_sum(chain_a, cycle) - cycle_sum(chain_b, cycle)) > CYCLE_SUM_TOL:
            return False, cycle
    return True, None


def cohomologous_with_constant(f: Potential, g: Potential):
    """Whether two potentials differ by a coboundary plus a constant.

    Returns ``(True, None)`` when all simple-cycle sums of the normalized
    potentials agree within ``CYCLE_SUM_TOL``, else ``(False, witness_cycle)``.
    """
    if f.base != g.base:
        raise PreconditionError("potentials must share the base matrix")
    chain_f, _ = normalize(f)
    chain_g, _ = normalize(g)
    return chains_cohomologous(chain_f, chain_g)
