"""Seeded inputs, operations and output checks for the four workloads.

Everything here is independent of the package under test: graphs, subspaces
and automorphisms are generated with the standard library, and every output
check recomputes its reference with the small exact helpers below instead of
calling ``graphsolitons``.  The only thing an operation does with the package
is call ``graphsolitons.cli.main`` with a command line.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

# Connected graphs on p unlabelled vertices (OEIS A001349), p = 1..7.
A001349 = (1, 1, 2, 6, 21, 112, 853)

# The nine block templates of the paper's family table: (name, complete flag
# per block, joined block pairs).  Mirrors the rows ``table1`` sweeps.
TEMPLATES = (
    ("complete", (True,), ()),
    ("bipartite", (False, False), ((0, 1),)),
    ("split", (False, True), ((0, 1),)),
    ("triangle-ddd", (False, False, False), ((0, 1), (1, 2), (0, 2))),
    ("triangle-ddc", (False, False, True), ((0, 1), (1, 2), (0, 2))),
    ("path-ddc", (False, False, True), ((0, 1), (1, 2))),
    ("path-dcc", (False, True, True), ((0, 1), (1, 2))),
    ("path-cdc", (True, False, True), ((0, 1), (1, 2))),
    ("path-ccc", (True, True, True), ((0, 1), (1, 2))),
)

# analyze: one positive member per family row on p = 8 (block sizes in
# template order) and K6, plus random G(p, m) graphs with m = density * C(p, 2).
# The 25 op shapes are an odd count whose middle shape (by latency) sits among
# several of similar cost, so the median op does not fall in a gap between
# shapes of very different cost.
ANALYZE_FAMILIES = (
    ("complete", (6,)),
    ("complete", (8,)),
    ("bipartite", (4, 4)),
    ("split", (3, 5)),
    ("triangle-ddd", (2, 3, 3)),
    ("triangle-ddc", (2, 2, 4)),
    ("path-ddc", (2, 3, 3)),
    ("path-dcc", (2, 3, 3)),
    ("path-cdc", (3, 2, 3)),
    ("path-ccc", (2, 3, 3)),
)
ANALYZE_SIZES = (6, 7, 8, 9, 10)
ANALYZE_DENSITIES = (0.4, 0.6, 0.8)

# extensions: positive graphs from the paw (|Aut| = 2) to K6 (|Aut| = 720).
EXTENSION_GRAPHS = (
    ("paw", 4, ((2, 3), (1, 3), (1, 2), (3, 4))),
    ("C4", 4, ((1, 2), (2, 3), (3, 4), (1, 4))),
    ("K4", 4, tuple(itertools.combinations(range(1, 5), 2))),
    ("C5", 5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5))),
    ("K2,3", 5, tuple((i, j) for i in (1, 2) for j in (3, 4, 5))),
    ("C6", 6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6))),
    ("K3,3", 6, tuple((i, j) for i in (1, 2, 3) for j in (4, 5, 6))),
    ("K5", 5, tuple(itertools.combinations(range(1, 6), 2))),
    ("K6", 6, tuple(itertools.combinations(range(1, 7), 2))),
)
EXTENSION_RANKS = (1, 2, 3)

CENSUS_MAX_P = 7
TABLE1_MAX = 8

# Distinct input sets generated per run; cycle k runs input set k mod this.
INPUT_SETS = 8


# ---------------------------------------------------------------- exact helpers


def positivity_solution(edges) -> tuple[bool, Fraction]:
    """Solve (3I + Adj L(G)) x = 1 by fraction-free (Bareiss) elimination.

    The matrix is positive definite (line-graph eigenvalues are >= -2), so no
    pivot vanishes and no row exchange is needed.  Returns (all x > 0, nu):
    the normalised weights are x / sum(x) and nu = 1 / sum(x).
    """
    q = len(edges)
    a = []
    for k, e in enumerate(edges):
        row = [1 if l != k and set(e) & set(f) else 0 for l, f in enumerate(edges)]
        row[k] = 3
        a.append(row + [1])
    prev = 1
    for k in range(q):
        ak = a[k]
        for i in range(k + 1, q):
            ai = a[i]
            f = ai[k]
            a[i] = ai[: k + 1] + [
                (ai[j] * ak[k] - f * ak[j]) // prev for j in range(k + 1, q + 1)
            ]
        prev = ak[k]
    x = [Fraction(0)] * q
    for k in range(q - 1, -1, -1):
        s = a[k][q] - sum(a[k][j] * x[j] for j in range(k + 1, q) if a[k][j])
        x[k] = Fraction(s) / a[k][k]
    total = sum(x)
    return all(v > 0 for v in x), 1 / total


def rank(vectors) -> int:
    rows = [[Fraction(v) for v in vec] for vec in vectors]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def twin_class_sizes(p: int, edges) -> list[int]:
    """Sizes of the classes of N(i) - {j} == N(j) - {i} (coherent components)."""
    nbrs = [set() for _ in range(p + 1)]
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    label = list(range(p + 1))
    for i in range(1, p + 1):
        for j in range(i + 1, p + 1):
            if nbrs[i] - {j} == nbrs[j] - {i}:
                old, new = label[j], label[i]
                label = [new if x == old else x for x in label]
    counts = {}
    for v in range(1, p + 1):
        counts[label[v]] = counts.get(label[v], 0) + 1
    return sorted(counts.values())


def is_connected(p: int, edges) -> bool:
    nbrs = [[] for _ in range(p + 1)]
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    seen = {1}
    stack = [1]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == p


def edge_set(edges) -> set:
    return {(min(i, j), max(i, j)) for i, j in edges}


def automorphism_list(p: int, edges) -> list[tuple[int, ...]]:
    """Every vertex permutation preserving the edge set (brute force, p <= 6)."""
    es = edge_set(edges)
    found = []
    for perm in itertools.permutations(range(1, p + 1)):
        if edge_set((perm[i - 1], perm[j - 1]) for i, j in es) == es:
            found.append(perm)
    return found


def push_forward(vectors, sigma) -> list[list[Fraction]]:
    """(sigma . v)_{sigma(i)} = v_i for each vector."""
    out = []
    for vec in vectors:
        w = [Fraction(0)] * len(vec)
        for i, val in enumerate(vec, start=1):
            w[sigma[i - 1] - 1] = Fraction(val)
        out.append(w)
    return out


def block_graph(complete, adjacency, sizes) -> tuple[int, list[tuple[int, int]]]:
    starts = list(itertools.accumulate((0,) + tuple(sizes)))
    blocks = [range(starts[b] + 1, starts[b + 1] + 1) for b in range(len(sizes))]
    edges = []
    for b, full in enumerate(complete):
        if full:
            edges.extend(itertools.combinations(blocks[b], 2))
    for a, b in adjacency:
        edges.extend(itertools.product(blocks[a], blocks[b]))
    return starts[-1], edges


def relabel(rng: random.Random, p: int, edges) -> list[tuple[int, int]]:
    """A random relabelling, edge order and endpoint order of the same graph."""
    perm = list(range(1, p + 1))
    rng.shuffle(perm)
    out = [(perm[i - 1], perm[j - 1]) for i, j in edges]
    out = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in out]
    rng.shuffle(out)
    return out


def graph_text(p: int, edges) -> str:
    return f"{p}\n" + "".join(f"{i} {j}\n" for i, j in edges)


def vectors_text(vectors) -> str:
    return "".join(" ".join(str(Fraction(x)) for x in vec) + "\n" for vec in vectors)


def table1_instances(max_size: int) -> int:
    total = 0
    for _name, complete, _adj in TEMPLATES:
        count = 1
        for full in complete:
            count *= max_size - 1 if full else max_size
        total += count
    return total


# ---------------------------------------------------------------- operations


@dataclass
class Op:
    """One closed-loop request: CLI calls run back to back, then a check.

    ``units`` is how many items the op completes (classes for census,
    instances for table1, else 1).  ``check`` gets the list of
    (exit code, stdout) pairs and returns None or a failure reason.
    """

    label: str
    argvs: list
    units: int
    check: object
    limit_s: float


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _json(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def _check_analyze(p, edges, twins):
    want_dim = sum(m * (m + 1) // 2 for m in twins)
    es = [(min(i, j), max(i, j)) for i, j in edges]

    def check(results):
        (rc, out), = results
        rep = _json(out)
        if rc != 0 or rep is None:
            return f"exit {rc}"
        if rep.get("positive") is not True or rep.get("edges") != [list(e) for e in es]:
            return "not positive or edges differ"
        c = [Fraction(x) for x in rep["weights"]]
        nu = Fraction(rep["nu"])
        if sum(c) != 1:
            return "weights do not sum to 1"
        den = math.lcm(*(x.denominator for x in c + [nu]))
        ci = [int(x * den) for x in c]
        nui = int(nu * den)
        vsum = [0] * (p + 1)
        for (i, j), x in zip(es, ci):
            vsum[i] += x
            vsum[j] += x
        # (3I + A) c = c_k + vsum[i] + vsum[j] for edge k = (i, j)
        if any(x + vsum[i] + vsum[j] != nui for (i, j), x in zip(es, ci)):
            return "(3I+A)c != nu 1"
        sol = rep.get("soliton") or {}
        if sol.get("soliton") is not True or sol.get("residual") != "0":
            return "no exact soliton certificate"
        if Fraction(sol["c"]) != -nu / 2:
            return "c != -nu/2"
        if sorted(len(comp) for comp in rep["components"]) != twins:
            return "coherent components differ"
        if rep.get("sym_derivation_dim") != want_dim:
            return "symmetric derivation dimension breaks the dimension law"
        return None

    return check


def _check_extension(p, edges, r, nu, s_vecs, target_vecs):
    es = edge_set(edges)
    q = len(es)

    def check(results):
        (rc1, out1), (rc2, out2) = results
        sol, cls = _json(out1), _json(out2)
        if rc1 != 0 or rc2 != 0 or sol is None or cls is None:
            return f"exit {rc1}/{rc2}"
        if sol.get("soliton") is not True or sol.get("residual") != "0":
            return "no exact solsoliton certificate"
        if sol.get("r") != r or sol.get("dim") != r + p + q:
            return "wrong extension dimension"
        if Fraction(sol["c"]) != -nu / 2:
            return "c != -nu/2"
        if rank(s_vecs + [[Fraction(x) for x in row] for row in sol["subspace"]]) != r:
            return "reported subspace differs from the input"
        if cls.get("equivalent") is not True:
            return "s and sigma.s not found equivalent"
        w = cls.get("witness")
        if sorted(w or ()) != list(range(1, p + 1)):
            return "witness is not a permutation"
        if edge_set((w[i - 1], w[j - 1]) for i, j in es) != es:
            return "witness is not an automorphism"
        if rank(push_forward(s_vecs, w) + target_vecs) != r:
            return "witness does not map s onto sigma.s"
        if cls.get("canonical_a") != cls.get("canonical_b"):
            return "canonical forms of one orbit differ"
        return None

    return check


def _check_census(max_p):
    def check(results):
        (rc, out), = results
        rep = _json(out)
        if rc != 0 or rep is None:
            return f"exit {rc}"
        per_p = rep.get("per_p", {})
        for p in range(1, max_p + 1):
            got = per_p.get(str(p), {}).get("classes")
            if got != A001349[p - 1]:
                return f"p={p}: {got} classes, OEIS A001349 says {A001349[p - 1]}"
        return None

    return check


def _check_table1(max_size):
    want = table1_instances(max_size)

    def check(results):
        (rc, out), = results
        rep = _json(out)
        if rc != 0 or rep is None:
            return f"exit {rc}"
        if rep.get("checked") != want or rep.get("mismatches") != []:
            return f"checked {rep.get('checked')} (want {want}), mismatches {rep.get('mismatches')}"
        return None

    return check


def _random_positive_graph(rng, p, m):
    pairs = list(itertools.combinations(range(1, p + 1), 2))
    while True:
        edges = rng.sample(pairs, m)
        if is_connected(p, edges) and positivity_solution(edges)[0]:
            return edges


def analyze_ops(rng, workdir, set_index, smoke):
    ops = []
    sizes = ANALYZE_SIZES[:1] if smoke else ANALYZE_SIZES
    families = () if smoke else ANALYZE_FAMILIES
    strata = [("random", p, d) for d in ANALYZE_DENSITIES for p in sizes]
    strata += [("family", name, sz) for name, sz in families]
    # A fixed order, the same for every seed, that mixes light and heavy ops.
    random.Random(0).shuffle(strata)
    templates = {name: (complete, adj) for name, complete, adj in TEMPLATES}
    for n, (kind, a, b) in enumerate(strata):
        if kind == "random":
            p = a
            edges = _random_positive_graph(rng, p, round(b * p * (p - 1) / 2))
            label = f"G({p},{b})"
        else:
            complete, adj = templates[a]
            p, edges = block_graph(complete, adj, b)
            if not (is_connected(p, edges) and positivity_solution(edges)[0]):
                raise RuntimeError(f"family graph {a}{b} is not positive")
            edges = relabel(rng, p, edges)
            label = f"{a}{b}"
        path = _write(os.path.join(workdir, f"a{set_index}_{n}.txt"), graph_text(p, edges))
        twins = twin_class_sizes(p, edges)
        ops.append(Op(label, [["analyze", path]], 1, _check_analyze(p, edges, twins), 60.0))
    return ops


def extensions_ops(rng, workdir, set_index, smoke):
    ops = []
    pool = EXTENSION_GRAPHS[:2] if smoke else EXTENSION_GRAPHS
    ranks = EXTENSION_RANKS[:1] if smoke else EXTENSION_RANKS
    n = 0
    for name, p0, base in pool:
        positive, nu = positivity_solution(base)
        if not positive:
            raise RuntimeError(f"extension graph {name} is not positive")
        for r in ranks:
            edges = relabel(rng, p0, base)
            auts = automorphism_list(p0, edges)
            while True:
                s_vecs = [[Fraction(rng.randint(-3, 3)) for _ in range(p0)] for _ in range(r)]
                if rank(s_vecs) == r:
                    break
            sigma = rng.choice(auts)
            moved = push_forward(s_vecs, sigma)
            # Hand classify another basis of sigma.s: add multiples of later rows.
            target = [list(row) for row in moved]
            for i in range(r):
                for j in range(i + 1, r):
                    f = rng.randint(-2, 2)
                    target[i] = [a + f * b for a, b in zip(target[i], target[j])]
            g = _write(os.path.join(workdir, f"x{set_index}_{n}.txt"), graph_text(p0, edges))
            s = _write(os.path.join(workdir, f"x{set_index}_{n}.s"), vectors_text(s_vecs))
            t = _write(os.path.join(workdir, f"x{set_index}_{n}.t"), vectors_text(target))
            ops.append(
                Op(
                    f"{name}/r{r}",
                    [["solsoliton", g, "--subspace", s], ["classify", g, s, t]],
                    1,
                    _check_extension(p0, edges, r, nu, s_vecs, target),
                    60.0,
                )
            )
            n += 1
    return ops


def census_ops(rng, workdir, set_index, smoke):
    max_p = 4 if smoke else CENSUS_MAX_P
    out = os.path.join(workdir, "census.jsonl")
    argv = ["census", "--max-p", str(max_p), "--jobs", "1", "-o", out]
    return [Op(f"census<= {max_p}", [argv], sum(A001349[:max_p]), _check_census(max_p), 150.0)]


def table1_ops(rng, workdir, set_index, smoke):
    size = 3 if smoke else TABLE1_MAX
    argv = ["table1", "--max", str(size)]
    return [Op(f"table1<= {size}", [argv], table1_instances(size), _check_table1(size), 90.0)]


WORKLOADS = {
    "analyze": analyze_ops,
    "census": census_ops,
    "table1": table1_ops,
    "extensions": extensions_ops,
}


def make_inputs(workload: str, seed: int, workdir: str, smoke: bool) -> list[list[Op]]:
    """INPUT_SETS lists of ops (one list per cycle), written under workdir."""
    make = WORKLOADS[workload]
    return [
        make(random.Random(seed * 1009 + k), workdir, k, smoke) for k in range(INPUT_SETS)
    ]
