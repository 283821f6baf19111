"""Pressure function, entropy spectrum, and characteristic-polynomial families.

Raising the entries of a chain's stochastic matrix to a real power ``q``
(edges only) gives a one-parameter matrix family whose log-Perron root is
the pressure ``beta(q)``.  The entropy spectrum of the Gibbs measure is the
Legendre transform of ``beta``: at parameter ``q`` the local decay rate is
``alpha = -beta'(q)`` and the spectrum value is ``beta(q) + q * alpha``.
Two measures share their entropy spectra whenever the characteristic
polynomials of the two families coincide for every ``q``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError, SolverError
from .gibbs import Comparison, GibbsChain, perron
from .shiftcore import TransitionMatrix, simple_cycles
from .tolerances import CHAR_POLY_TOL, DIAGONAL_TOL, SPECTRUM_TOL

__all__ = [
    "SpectrumCurve",
    "topological_entropy",
    "q_power",
    "pressure",
    "pressure_derivative",
    "spectrum_point",
    "spectrum_curve",
    "char_poly",
    "char_poly_family_equal",
    "DEFAULT_Q_GRID",
]

DEFAULT_Q_GRID = tuple(np.linspace(-3.0, 3.0, 25))


def topological_entropy(matrix: TransitionMatrix) -> float:
    """Log of the Perron root of the zero-one matrix, cached on the matrix."""
    if matrix._entropy is None:
        matrix._entropy = math.log(perron(matrix.entries).root)
    return matrix._entropy


def q_power(chain: GibbsChain, q: float) -> np.ndarray:
    """Entrywise power of the chain matrix on edges, zero elsewhere."""
    mask = chain.edge_mask
    out = np.zeros_like(chain.q)
    out[mask] = chain.q[mask] ** q
    return out


def pressure(chain: GibbsChain, q: float) -> float:
    """Log of the Perron root of the powered family member at ``q``.

    Vanishes at ``q = 1`` (the matrix is column stochastic there) and
    equals the topological entropy of the shift at ``q = 0``.
    """
    return math.log(perron(q_power(chain, q)).root)


# q values solved per stacked perron call: memory stays O(steps), not O(steps * n^2).
_BLOCK = 64


def _legendre(chain: GibbsChain, qs: np.ndarray):
    """Legendre points ``(alphas, entropies)`` of the entropy spectrum at each ``q``.

    Each block of ``_BLOCK`` values is one stacked :func:`q_power` and one
    stacked :func:`perron` call; ``alpha = -beta'(q)`` comes from
    eigenvalue perturbation, ``left @ (M * log Q) @ right / root`` (edges
    only; ``left @ right == 1``).
    """
    mask = chain.edge_mask
    log_q = np.log(chain.q, out=np.zeros_like(chain.q), where=mask)
    ceiling = topological_entropy(chain.base)
    alphas = np.empty(len(qs))
    entropies = np.empty(len(qs))
    for start in range(0, len(qs), _BLOCK):
        block = qs[start : start + _BLOCK]
        powered = np.zeros((len(block),) + chain.q.shape)
        np.power(chain.q, block[:, None, None], out=powered, where=mask)
        data = perron(powered)
        alpha = -np.einsum("ki,kij,ij,kj->k", data.left, powered, log_q, data.right) / data.root
        alphas[start : start + _BLOCK] = alpha
        entropies[start : start + _BLOCK] = np.log(data.root) + block * alpha
    escaped = (entropies < -SPECTRUM_TOL) | (entropies > ceiling + SPECTRUM_TOL)
    if escaped.any():
        k = int(escaped.argmax())
        raise SolverError(f"spectrum value {entropies[k]} at q = {qs[k]} escapes [0, {ceiling}]")
    return alphas, entropies


def pressure_derivative(chain: GibbsChain, q: float) -> float:
    """Derivative of the pressure by eigenvalue perturbation.

    With ``M = q_power(chain, q)`` and Perron data ``(root, left, right)``,
    the derivative is ``left @ (M * log Q) @ right / (root * left @ right)``
    where the elementwise product runs over edges.  Agrees with central
    finite differences to well below 1e-6 on healthy inputs.
    """
    alphas, _ = _legendre(chain, np.array([float(q)]))
    return float(-alphas[0])


def spectrum_point(chain: GibbsChain, q: float):
    """One Legendre point ``(alpha, entropy)`` of the entropy spectrum.

    ``alpha`` is the local decay rate ``-beta'(q)`` and ``entropy`` is
    ``beta(q) + q * alpha``, which lies between 0 and the topological
    entropy of the shift.
    """
    alphas, entropies = _legendre(chain, np.array([float(q)]))
    return float(alphas[0]), float(entropies[0])


@dataclass(frozen=True)
class SpectrumCurve:
    """Sampled entropy spectrum along a uniform parameter grid."""

    qs: np.ndarray
    alphas: np.ndarray
    entropies: np.ndarray
    ceiling: float

    @property
    def samples(self) -> list:
        return [
            (float(q), float(a), float(e))
            for q, a, e in zip(self.qs, self.alphas, self.entropies)
        ]

    def validate(self) -> None:
        """Enforce monotonicity, range, and the diagonal touch at q = 1."""
        if self.entropies.min() < -SPECTRUM_TOL or self.entropies.max() > self.ceiling + SPECTRUM_TOL:
            raise SolverError("spectrum values escape the entropy range")
        if (np.diff(self.alphas) > SPECTRUM_TOL).any():
            raise SolverError("decay rates fail to be non-increasing in q")
        at_one = np.abs(self.qs - 1.0) <= SPECTRUM_TOL
        if at_one.any():
            gap = np.abs(self.entropies[at_one] - self.alphas[at_one]).max()
            if gap > DIAGONAL_TOL:
                raise SolverError("spectrum does not touch the diagonal at q = 1")


def spectrum_curve(chain: GibbsChain, q_min: float, q_max: float, steps: int) -> SpectrumCurve:
    """Uniformly sampled entropy spectrum on ``[q_min, q_max]``."""
    if not q_min < q_max:
        raise PreconditionError("q_min must be below q_max")
    if steps < 2:
        raise PreconditionError("at least 2 samples are required")
    qs = np.linspace(q_min, q_max, steps)
    alphas, entropies = _legendre(chain, qs)
    curve = SpectrumCurve(qs, alphas, entropies, topological_entropy(chain.base))
    curve.validate()
    return curve


def char_poly(matrix) -> list:
    """Coefficients of ``det(zI - M)``, monic, highest power first.

    Runs the Faddeev-LeVerrier recursion ``W_k = M @ (W_{k-1} + c_{k-1} I)``,
    ``c_k = -trace(W_k) / k`` from ``W_0 = 0``, ``c_0 = 1`` on one numpy
    array: ``dtype=object`` holding exact Fractions when every entry is a
    :class:`~fractions.Fraction` or a Python ``int``, else ``float64``.
    """
    numeric = isinstance(matrix, np.ndarray) and matrix.dtype != object
    m = np.array(matrix, dtype=float if numeric else object)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise PreconditionError("matrix must be square")
    exact = not numeric and all(isinstance(x, (Fraction, int)) and not isinstance(x, bool) for x in m.flat)
    m = np.vectorize(Fraction, otypes=[object])(m) if exact else m.astype(float)
    eye = np.eye(len(m), dtype=m.dtype)
    coeffs, work = [Fraction(1) if exact else 1.0], np.zeros_like(m)
    for k in range(1, len(m) + 1):
        work = m @ (work + coeffs[-1] * eye)
        coeffs.append(-work.trace() / k)
    return np.array(coeffs, dtype=m.dtype).tolist()


def _signed_cycle_profile(chain: GibbsChain) -> dict:
    """Exact fingerprint of the characteristic-polynomial family.

    Each coefficient of ``det(zI - q_power(chain, q))`` is a signed sum of
    terms ``(product of entries over a family of vertex-disjoint simple
    cycles) ** q``.  Distinct positive bases are linearly independent as
    functions of ``q``, so grouping the signs by exact base per covered
    vertex count determines the family completely.  Requires exact entries.
    """
    cycles = simple_cycles(chain.base)
    vertex_sets = [frozenset(c[:-1]) for c in cycles]
    weights = [
        math.prod((chain.entries[(i, j)] for i, j in zip(c, c[1:])), start=Fraction(1))
        for c in cycles
    ]
    sizes = [len(c) - 1 for c in cycles]
    profile: dict = {}

    def extend(start, used, size, weight, count):
        for idx in range(start, len(cycles)):
            if vertex_sets[idx] & used:
                continue
            new_size = size + sizes[idx]
            new_weight = weight * weights[idx]
            bucket = profile.setdefault(new_size, {})
            bucket[new_weight] = bucket.get(new_weight, 0) + (-1) ** (count + 1)
            extend(idx + 1, used | vertex_sets[idx], new_size, new_weight, count + 1)

    extend(0, frozenset(), 0, Fraction(1), 0)
    kept = {size: {w: c for w, c in bucket.items() if c != 0} for size, bucket in profile.items()}
    return {size: bucket for size, bucket in kept.items() if bucket}


def char_poly_family_equal(chain_a: GibbsChain, chain_b: GibbsChain, q_grid=None, tol: float = CHAR_POLY_TOL):
    """Whether the two powered families share characteristic polynomials.

    In exact mode (both chains carry exact entries) the comparison
    certifies equality for every real ``q`` through the signed cycle-cover
    fingerprint and the reported deviation is 0; unequal exact families
    still report their numeric deviation on the grid.  In floating mode
    the polynomials are compared on the grid (default 25 points on
    [-3, 3]) coefficientwise, with differences measured relative to the
    largest coefficient magnitude at that grid point, against ``tol``; the
    result is then a high-confidence numerical statement rather than a proof.
    A tolerance that is negative or not finite raises
    :class:`PreconditionError` in both modes: ``nan`` or a negative value
    would call every pair unequal, and ``inf`` every pair equal.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise PreconditionError(f"tolerance must be finite and non-negative, got {tol}")
    if chain_a.n != chain_b.n:
        raise PreconditionError("chains must share the alphabet size")
    exact = Comparison.of(chain_a, chain_b).exact
    if exact and _signed_cycle_profile(chain_a) == _signed_cycle_profile(chain_b):
        return True, 0.0
    grid = DEFAULT_Q_GRID if q_grid is None else tuple(float(q) for q in q_grid)
    deviation = 0.0
    for q in grid:
        pa = np.array(char_poly(q_power(chain_a, q)), dtype=float)
        pb = np.array(char_poly(q_power(chain_b, q)), dtype=float)
        scale = max(1.0, float(np.abs(pa).max()), float(np.abs(pb).max()))
        deviation = max(deviation, float(np.abs(pa - pb).max()) / scale)
    return not exact and deviation <= tol, deviation
