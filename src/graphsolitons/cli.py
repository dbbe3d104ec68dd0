"""Command-line interface.

Commands: ``analyze``, ``solsoliton``, ``classify``, ``census``, ``table1``.
All structured output is JSON with sorted keys and exact fraction strings, so
repeated runs are byte-identical.  Exit codes: 0 affirmative, 1 well-formed
negative (non-positive graph, inequivalent subspaces, criterion mismatch),
2 malformed input or usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from .algebra import (
    NotSoliton,
    check_soliton,
    graph_algebra,
    symmetric_derivation_nullspace,
)
from .census import MAX_CENSUS_P, graph_classes_with_aut_order
from .errors import GraphSolitonsError, GroupTooLarge
from .graphs import Graph, automorphism_order, coherent_components, parse_graph
from .positivity import (
    TABLE_ROWS,
    FamilySpec,
    family_graph,
    is_positive,
    table1_criterion,
)
from .rational import fraction_str
from .subspaces import (
    SubspaceParam,
    build_solsoliton,
    canonical_subspace,
    classify_subspaces,
    einstein_direction,
    parse_subspace,
)


# ``analyze`` reports ``aut_order`` up to this vertex count and null above
# it.  The cap bounds the count's time: without partition refinement (McKay
# & Piperno 2014) the search grows about tenfold per two vertices, to 4 s on
# random cubic graphs with p = 18 (Python 3.11).
ANALYZE_AUT_MAX_P = 12


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _print_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> Graph:
    return parse_graph(_read(path))


def _basis_json(s: SubspaceParam):
    return [[fraction_str(x) for x in row] for row in s.basis]


def cmd_analyze(args) -> int:
    g = _load_graph(args.graph)
    decision = is_positive(g)
    cd = coherent_components(g)
    report = {
        "p": g.p,
        "q": g.q,
        "edges": [list(e) for e in g.edges],
        "positive": decision.positive,
        "degenerate": decision.degenerate,
        "components": [list(c) for c in cd.components],
        "component_flags": list(cd.flags),
        "coherence_edges": [[a + 1, b + 1] for a, b in cd.coherence_edges],
        "aut_order": automorphism_order(g) if g.p <= ANALYZE_AUT_MAX_P else None,
    }
    if decision.weighting is not None:
        w = decision.weighting
        report["weights"] = [fraction_str(x) for x in w.c]
        report["nu"] = fraction_str(w.nu)
    if decision.positive:
        algebra = graph_algebra(g, decision.weighting)
        cert = check_soliton(algebra)
        if isinstance(cert, NotSoliton):
            report["soliton"] = {"soliton": False, "residual": fraction_str(cert.residual)}
        else:
            report["soliton"] = {
                "soliton": True,
                "c": fraction_str(cert.c),
                "derivation_diagonal": [
                    fraction_str(cert.derivation[i][i]) for i in range(algebra.n)
                ],
                "residual": fraction_str(cert.residual),
            }
        report["sym_derivation_dim"] = len(symmetric_derivation_nullspace(algebra))
    else:
        report["failing_edge_indices"] = list(decision.failure.failing_indices)
        report["unnormalized_weights"] = [fraction_str(x) for x in decision.failure.c]
    _print_json(report)
    return 0 if decision.positive else 1


def _load_subspace(path: str, p: int) -> SubspaceParam:
    vectors = parse_subspace(_read(path), p)
    s = SubspaceParam.from_vectors(p, vectors)
    if s.r < len(vectors):
        sys.stderr.write(
            f"warning: {path}: {len(vectors)} vectors span only {s.r} dimensions\n"
        )
    return s


def cmd_solsoliton(args) -> int:
    g = _load_graph(args.graph)
    decision = is_positive(g)
    if not decision.positive:
        _print_json(
            {
                "positive": False,
                "failing_edge_indices": list(decision.failure.failing_indices),
            }
        )
        return 1
    if decision.weighting is None:
        _print_json({"positive": True, "degenerate": True, "note": "edgeless graph has no extension"})
        return 1
    w = decision.weighting
    if args.einstein:
        s = SubspaceParam.from_vectors(g.p, [einstein_direction(g, w)])
    else:
        s = _load_subspace(args.subspace, g.p)
    sol = build_solsoliton(g, w, s)
    cert = check_soliton(sol)
    try:
        canonical = _basis_json(canonical_subspace(g, s))
    except GroupTooLarge:
        canonical = None
    report = {
        "p": g.p,
        "q": g.q,
        "r": s.r,
        "dim": sol.n,
        "positive": True,
        "subspace": _basis_json(s),
        "canonical_subspace": canonical,
    }
    if isinstance(cert, NotSoliton):
        report["soliton"] = False
        report["residual"] = fraction_str(cert.residual)
        _print_json(report)
        return 1
    d = cert.derivation
    einstein = all(x == 0 for row in d for x in row)
    diag_only = all(d[i][j] == 0 for i in range(sol.n) for j in range(sol.n) if i != j)
    report.update(
        {
            "soliton": True,
            "c": fraction_str(cert.c),
            "residual": fraction_str(cert.residual),
            "einstein": einstein,
            "derivation_is_diagonal": diag_only,
            "derivation_diagonal": [fraction_str(d[i][i]) for i in range(sol.n)],
        }
    )
    _print_json(report)
    return 0


def cmd_classify(args) -> int:
    g = _load_graph(args.graph)
    s1 = _load_subspace(args.subspace_a, g.p)
    s2 = _load_subspace(args.subspace_b, g.p)
    verdict, canonical_a, canonical_b = classify_subspaces(g, s1, s2)
    report = {
        "r_a": s1.r,
        "r_b": s2.r,
        "equivalent": verdict.equivalent,
        "witness": list(verdict.witness.images) if verdict.equivalent else None,
        "canonical_a": _basis_json(canonical_a),
        "canonical_b": _basis_json(canonical_b),
    }
    _print_json(report)
    return 0 if verdict.equivalent else 1


def _census_record(g: Graph, aut_order: int) -> dict:
    decision = is_positive(g)
    cd = coherent_components(g)
    record = {
        "canonical_edges": [list(e) for e in g.edges],
        "p": g.p,
        "q": g.q,
        "positive": decision.positive,
        "components": [list(c) for c in cd.components],
        "aut_order": aut_order,
    }
    if decision.weighting is not None:
        record["weights"] = [fraction_str(x) for x in decision.weighting.c]
        record["nu"] = fraction_str(decision.weighting.nu)
    return record


def _write_census(fh, records, per_p: dict) -> None:
    """Write each record as one JSONL line as it arrives, counting classes and
    positivity per vertex count into ``per_p``."""
    for record in records:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
        slot = per_p.setdefault(str(record["p"]), {"classes": 0, "positive": 0, "nonpositive": 0})
        slot["classes"] += 1
        slot["positive" if record["positive"] else "nonpositive"] += 1


def cmd_census(args) -> int:
    classes, orders = zip(*graph_classes_with_aut_order(args.max_p, connected_only=not args.all))
    per_p = {}
    with open(args.output, "w", encoding="utf-8") as fh:
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                _write_census(fh, pool.map(_census_record, classes, orders, chunksize=8), per_p)
        else:
            _write_census(fh, map(_census_record, classes, orders), per_p)
    summary = {
        "max_p": args.max_p,
        "connected_only": not args.all,
        "classes": len(classes),
        "positive": sum(slot["positive"] for slot in per_p.values()),
        "nonpositive": sum(slot["nonpositive"] for slot in per_p.values()),
        "per_p": per_p,
        "output": args.output,
    }
    _print_json(summary)
    return 0


def cmd_table1(args) -> int:
    import itertools

    checked = 0
    mismatches = []
    per_row = {}
    for row in TABLE_ROWS:
        ranges = [
            range(2, args.max + 1) if flag else range(1, args.max + 1)
            for flag in row.complete
        ]
        count = 0
        for sizes in itertools.product(*ranges):
            spec = FamilySpec(complete=row.complete, adjacency=row.adjacency, sizes=sizes)
            closed = table1_criterion(spec)
            solver = is_positive(family_graph(spec)).positive
            checked += 1
            count += 1
            if closed != solver:
                mismatches.append(
                    {"row": row.name, "sizes": list(sizes), "closed_form": closed, "solver": solver}
                )
        per_row[row.name] = count
    _print_json(
        {
            "max_size": args.max,
            "checked": checked,
            "per_row": per_row,
            "mismatches": mismatches,
        }
    )
    return 0 if not mismatches else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="graphsolitons",
        description="Exact soliton metrics from graphs: positivity, certificates, classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="positivity, weights, components, soliton certificate")
    p_analyze.add_argument("graph", help="graph file")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sol = sub.add_parser("solsoliton", help="build the solvable extension for a subspace")
    p_sol.add_argument("graph", help="graph file")
    group = p_sol.add_mutually_exclusive_group(required=True)
    group.add_argument("--subspace", help="subspace file (one basis vector per line)")
    group.add_argument("--einstein", action="store_true", help="use the Einstein direction")
    p_sol.set_defaults(func=cmd_solsoliton)

    p_cls = sub.add_parser("classify", help="decide whether two subspaces are equivalent")
    p_cls.add_argument("graph", help="graph file")
    p_cls.add_argument("subspace_a", help="first subspace file")
    p_cls.add_argument("subspace_b", help="second subspace file")
    p_cls.set_defaults(func=cmd_classify)

    p_census = sub.add_parser("census", help="enumerate small graph classes to JSONL")
    p_census.add_argument(
        "--max-p",
        type=_positive_int,
        required=True,
        help=f"largest vertex count (1..{MAX_CENSUS_P})",
    )
    p_census.add_argument("--all", action="store_true", help="include disconnected classes")
    p_census.add_argument(
        "--jobs", type=_positive_int, default=1, help="parallel workers (>= 1)"
    )
    p_census.add_argument("-o", "--output", required=True, help="JSONL output path")
    p_census.set_defaults(func=cmd_census)

    p_table = sub.add_parser("table1", help="closed-form family criteria vs the exact solver")
    p_table.add_argument(
        "--max", type=_positive_int, default=8, help="largest block size (>= 1)"
    )
    p_table.set_defaults(func=cmd_table1)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        return args.func(args)
    except (OSError, GraphSolitonsError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
