"""Slow references that the package's fast routes are tested against.

Each reference does the obvious, exponential thing, for alphabets of at
most 6 symbols.  It reads plain arrays and dicts only (1-based edges, as in
the package) and uses none of the package's code, so it stays an
independent oracle.
"""

import math


def admissible_words(entries, length):
    """Every word of ``length`` symbols whose adjacent pairs are edges of the zero-one ``entries``."""
    n = len(entries)
    words = [(s,) for s in range(1, n + 1)]
    for _ in range(length - 1):
        words = [w + (j,) for w in words for j in range(1, n + 1) if entries[w[-1] - 1][j - 1]]
    return words


def gibbs_ratio_bounds(entries, q, pi, values, pressure, max_len):
    """Extrema of ``mu([w]) / exp(-|w| * pressure + S_w + c)`` over the admissible words up to ``max_len``.

    ``mu([w])`` is the product of ``q`` along the word's edges times ``pi``
    of its last symbol, and ``S_w`` sums ``values`` (keyed by edge) along
    them.  ``c`` is the largest value on an edge out of the last symbol for
    the lower bound and the smallest for the upper bound.
    """
    n = len(entries)
    lo, hi = math.inf, 0.0
    for length in range(1, max_len + 1):
        for w in admissible_words(entries, length):
            edges = list(zip(w, w[1:]))
            mu = math.prod(q[i - 1][j - 1] for i, j in edges) * pi[w[-1] - 1]
            weight = -length * pressure + sum(values[e] for e in edges)
            continuations = [values[(w[-1], j)] for j in range(1, n + 1) if entries[w[-1] - 1][j - 1]]
            lo = min(lo, mu / math.exp(weight + max(continuations)))
            hi = max(hi, mu / math.exp(weight + min(continuations)))
    return lo, hi
