"""Shared fixtures: small reference graphs and cached census classes."""

import importlib.util
import itertools
import time
from fractions import Fraction
from pathlib import Path

import pytest

from graphsolitons import (
    Graph,
    MetricLieAlgebra,
    SubspaceParam,
    build_solsoliton,
    graph_algebra,
    graph_classes,
    graph_classes_with_aut_order,
    is_positive,
)

# Triangle 1-2-3 with a pendant edge 3-4 ("paw"), edges ordered so the edge
# weights come out (1/6, 1/6, 1/3, 1/3).
PAW_EDGES = ((2, 3), (1, 3), (1, 2), (3, 4))
PAW_TEXT = "# triangle 1-2-3 plus pendant 3-4\n4\n2 3\n1 3\n1 2\n3 4\n"


@pytest.fixture
def paw() -> Graph:
    return Graph(p=4, edges=PAW_EDGES)


@pytest.fixture
def k2() -> Graph:
    return Graph(p=2, edges=((1, 2),))


@pytest.fixture
def p3() -> Graph:
    return Graph(p=3, edges=((1, 2), (2, 3)))


@pytest.fixture
def p4() -> Graph:
    return Graph(p=4, edges=((1, 2), (2, 3), (3, 4)))


@pytest.fixture
def k3() -> Graph:
    return Graph(p=3, edges=((1, 2), (1, 3), (2, 3)))


@pytest.fixture(scope="session")
def connected_classes_p5():
    return graph_classes(5)


@pytest.fixture(scope="session")
def connected_classes_p6():
    return graph_classes(6)


@pytest.fixture(scope="session")
def census_p8():
    """Every class on at most 8 vertices with its |Aut| (connected or not),
    and the seconds the census took; the session runs it once."""
    start = time.perf_counter()
    pairs = graph_classes_with_aut_order(8, connected_only=False)
    return pairs, time.perf_counter() - start


def F(num, den=1) -> Fraction:
    return Fraction(num, den)


def p3_and_k3_with_off_diagonal_gram():
    """The graph algebras of P3 and K3 with <v1, v2> = 1/2, the rest of the
    Gram the identity: neither is a soliton (residual 1/3)."""
    for edges in (((1, 3), (2, 3)), ((1, 2), (1, 3), (2, 3))):
        base = graph_algebra(Graph(p=3, edges=edges))
        n = base.n
        gram = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
        gram[0][1] = gram[1][0] = F(1, 2)
        yield MetricLieAlgebra(
            n=n, labels=base.labels, brackets=base.brackets, gram=tuple(map(tuple, gram))
        )


def large_algebras():
    """``(label, algebra)`` for the seeded large graphs of
    ``tools/same_output.py`` (twin-free, connected and positive, with a path
    backbone: p = 20, q = 80; p = 30, q = 70; p = 50, q = 50): each graph
    algebra under its nilsoliton metric, then its solvable extensions on
    the tool's seeded subspaces of every rank it lists."""
    spec = importlib.util.spec_from_file_location(
        "same_output", Path(__file__).resolve().parent.parent / "tools" / "same_output.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for p, q, seed in tool.LARGE_GRAPHS:
        g = Graph(p=p, edges=tuple(tool.large_graph(p, q, seed)))
        w = is_positive(g).weighting
        yield f"p{p}q{q}", graph_algebra(g, w)
        for r in tool.LARGE_RANKS:
            vectors = [[F(x) for x in v] for v in tool.large_subspace(p, r, seed)]
            yield f"p{p}q{q}r{r}", build_solsoliton(g, w, SubspaceParam.from_vectors(p, vectors))


def blown_up_graph(rng, p, max_blocks=None):
    """A random graph on p vertices with many twins: a random template on
    k <= max_blocks (default p) blocks, each block complete or discrete,
    blocks joined at random, vertex labels shuffled."""
    k = rng.randint(1, max_blocks or p)
    block = [rng.randrange(k) for _ in range(p)]
    complete = [rng.random() < 0.5 for _ in range(k)]
    joined = {(a, b) for a in range(k) for b in range(a + 1, k) if rng.random() < 0.5}
    labels = list(range(1, p + 1))
    rng.shuffle(labels)
    edges = []
    for u, v in itertools.combinations(range(p), 2):
        a, b = sorted((block[u], block[v]))
        if (complete[a] if a == b else (a, b) in joined):
            edges.append((labels[u], labels[v]))
    return Graph(p=p, edges=tuple(edges))


def sparse_rank(vectors) -> int:
    """Rank of sparse ``{coordinate: value}`` vectors, by elimination on the
    least coordinate of each; independent of the solvers under test."""
    pivots = {}  # least coordinate -> a reduced vector with 1 there
    for vec in vectors:
        v = {c: x for c, x in vec.items() if x}
        while v:
            col = min(v)
            prow = pivots.get(col)
            if prow is None:
                pivots[col] = {c: x / v[col] for c, x in v.items()}
                break
            f = v[col]
            for c, x in prow.items():
                nv = v.get(c, 0) - f * x
                if nv:
                    v[c] = nv
                else:
                    v.pop(c, None)
    return len(pivots)
