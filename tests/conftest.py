import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from markovgibbs import (
    GibbsChain,
    Potential,
    TransitionMatrix,
    counterexample_matrix,
    has_distinct_branch_values,
    is_primitive,
    normalize,
)

FIXTURE_VALUES = {
    (2, 1): 1.0,
    (1, 3): 1.0,
    (1, 2): 0.2,
    (3, 2): 0.3,
    (4, 2): 0.5,
    (1, 4): 0.4,
    (2, 4): 0.6,
}

# Log edge values (None off the edges) of a 12-symbol chain whose q = -20 member of the
# powered family makes the batched bordered Newton solve in ``perron`` exactly singular.
# Drawn as in ``random_primitive_matrix(default_rng(194), 12)`` with U[-4, 4] values,
# rounded to one decimal.
SINGULAR_NEWTON_LOG_VALUES = [
    [None, None, 1.0, None, None, None, 0.5, -2.7, None, None, None, -2.4],
    [-3.6, None, 0.8, None, None, None, None, None, None, -2.2, None, None],
    [-0.5, None, None, 0.1, None, None, None, None, None, None, None, None],
    [None, None, None, None, -1.0, 3.2, None, -0.4, None, 1.0, 1.6, None],
    [-3.1, None, None, 3.8, None, -0.3, None, None, None, None, None, None],
    [0.5, None, 2.7, None, None, -2.4, None, None, 0.3, None, None, 1.1],
    [2.2, None, None, None, None, None, -2.2, None, None, None, None, -3.2],
    [3.9, None, None, None, None, None, None, -2.6, None, -2.2, -3.3, -2.2],
    [None, None, None, -3.3, 4.0, None, None, None, -0.4, -2.0, 2.0, None],
    [None, 1.7, -3.8, None, None, -3.4, -0.3, -1.8, None, None, -1.8, -2.6],
    [None, -2.2, None, None, None, None, None, 3.0, None, 3.0, 3.8, None],
    [3.7, None, None, None, None, 2.0, None, -2.1, None, None, None, None],
]


@pytest.fixture
def four_matrix():
    return counterexample_matrix()


@pytest.fixture
def full2():
    return TransitionMatrix([[1, 1], [1, 1]])


@pytest.fixture
def golden_mean():
    return TransitionMatrix([[0, 1], [1, 1]])


@pytest.fixture
def fixture_chain(four_matrix):
    return GibbsChain.from_stochastic(four_matrix, FIXTURE_VALUES)


def random_primitive_matrix(rng, n, density=0.4):
    """Random primitive zero-one matrix with every row and column occupied."""
    while True:
        entries = (rng.random((n, n)) < density).astype(int)
        if (entries.sum(axis=0) == 0).any() or (entries.sum(axis=1) == 0).any():
            continue
        matrix = TransitionMatrix(entries)
        if is_primitive(matrix):
            return matrix


def random_potential(rng, matrix):
    return Potential(matrix, {e: rng.uniform(-1.0, 1.0) for e in matrix.edges})


def random_chain(rng, matrix):
    chain, _ = normalize(random_potential(rng, matrix))
    return chain


def random_chain_with_distinct_values(rng, matrix):
    while True:
        chain = random_chain(rng, matrix)
        ok, _ = has_distinct_branch_values(chain)
        if ok:
            return chain


def circulant(n, offsets):
    entries = np.zeros((n, n), dtype=int)
    for i in range(n):
        for offset in offsets:
            entries[i, (i + offset) % n] = 1
    return TransitionMatrix(entries)


@st.composite
def primitive_bases(draw, max_n):
    """Primitive bases on 2 to ``max_n`` symbols: a free zero-one matrix, or,
    for bases with many symmetries, a circulant."""
    n = draw(st.integers(2, max_n))
    if draw(st.booleans()):
        matrix = circulant(n, draw(st.sets(st.integers(0, n - 1), min_size=2)))
    else:
        entries = draw(hnp.arrays(np.int64, (n, n), elements=st.integers(0, 1)))
        assume(entries.sum(axis=0).all() and entries.sum(axis=1).all())
        matrix = TransitionMatrix(entries)
    assume(is_primitive(matrix))
    return matrix
