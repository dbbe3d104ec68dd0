"""Span tracing around the package's public functions, from outside the package.

Each traced function is replaced, in every ``graphsolitons`` module that binds
it, by a wrapper that opens a span.  A span's self time is its duration minus
the time covered by its child spans, so the self times of one operation sum to
the duration of its root span (``cli.main``).  Spans are aggregated as they
close (per name, and per parent/child pair) instead of being stored one by
one: the extensions workload opens thousands per operation.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (metric prefix, module, attribute).  ``MetricLieAlgebra.__post_init__`` is the
# Gram symmetry and positive-definiteness check run on every algebra built.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("graphs.parse_graph", "graphs", "parse_graph"),
    ("graphs.coherent_components", "graphs", "coherent_components"),
    ("graphs.automorphisms", "graphs", "automorphisms"),
    ("census.canonical_form", "census", "canonical_form"),
    ("census.graph_classes", "census", "graph_classes"),
    ("positivity.solve_weights", "positivity", "solve_weights"),
    ("positivity.edge_similarity_classes", "positivity", "edge_similarity_classes"),
    ("positivity.table1_criterion", "positivity", "table1_criterion"),
    ("positivity.family_graph", "positivity", "family_graph"),
    ("algebra.graph_algebra", "algebra", "graph_algebra"),
    ("algebra.gram_check", "algebra", "MetricLieAlgebra.__post_init__"),
    ("algebra.ricci", "algebra", "ricci"),
    ("algebra.leibniz_rows", "algebra", "leibniz_rows"),
    ("algebra.check_soliton", "algebra", "check_soliton"),
    ("algebra.symmetric_derivation_dimension", "algebra", "symmetric_derivation_dimension"),
    ("rational.sparse_nullspace", "rational", "sparse_nullspace"),
    ("rational.rref", "rational", "rref"),
    ("rational.solve_unique", "rational", "solve_unique"),
    ("rational.inverse", "rational", "inverse"),
    ("rational.leading_minors_all_positive", "rational", "leading_minors_all_positive"),
    ("subspaces.build_solsoliton", "subspaces", "build_solsoliton"),
    ("subspaces.canonical_subspace", "subspaces", "canonical_subspace"),
    ("subspaces.subspace_equivalent", "subspaces", "subspace_equivalent"),
    ("subspaces.apply_vertex_permutation", "subspaces", "apply_vertex_permutation"),
)

# Per-layer metrics reported with --trace 1: name -> unit.  Counts and times
# are per operation (totals over the traced operations divided by their
# number), so they do not depend on how many operations a run fits in.
PER_LAYER = {
    "graphs.automorphisms.calls": "count",
    "graphs.automorphisms.self_s": "s",
    "graphs.automorphisms.elements": "count",
    "graphs.automorphisms.distinct_ratio": "ratio",
    "graphs.coherent_components.self_s": "s",
    "graphs.parse_graph.self_s": "s",
    "census.canonical_form.calls": "count",
    "census.canonical_form.self_s": "s",
    "census.canonical_form.useful_ratio": "ratio",
    "census.graph_classes.self_s": "s",
    "positivity.solve_weights.calls": "count",
    "positivity.solve_weights.self_s": "s",
    "positivity.edge_similarity_classes.shrink": "ratio",
    "positivity.weights.max_den_bits": "bits",
    "positivity.table1_criterion.self_s": "s",
    "positivity.family_graph.self_s": "s",
    "algebra.graph_algebra.self_s": "s",
    "algebra.gram_check.self_s": "s",
    "algebra.ricci.calls": "count",
    "algebra.ricci.self_s": "s",
    "algebra.leibniz_rows.self_s": "s",
    "algebra.leibniz_rows.rows": "count",
    "algebra.check_soliton.self_s": "s",
    "algebra.check_soliton.certified_ratio": "ratio",
    "algebra.symmetric_derivation_dimension.self_s": "s",
    "rational.sparse_nullspace.calls": "count",
    "rational.sparse_nullspace.self_s": "s",
    "rational.sparse_nullspace.rows_in": "count",
    "rational.sparse_nullspace.nullity": "count",
    "rational.sparse_nullspace.nnz_out": "count",
    "rational.sparse_nullspace.max_den_bits": "bits",
    "rational.rref.calls": "count",
    "rational.rref.self_s": "s",
    "rational.solve_unique.self_s": "s",
    "rational.inverse.self_s": "s",
    "rational.leading_minors_all_positive.self_s": "s",
    "subspaces.build_solsoliton.self_s": "s",
    "subspaces.canonical_subspace.calls": "count",
    "subspaces.canonical_subspace.self_s": "s",
    "subspaces.canonical_subspace.elements": "count",
    "subspaces.subspace_equivalent.self_s": "s",
    "subspaces.apply_vertex_permutation.calls": "count",
    "subspaces.apply_vertex_permutation.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.self_sum_frac_worst": "ratio",
}

HOOKS = "trace.hooks"


def _den_bits(values) -> int:
    return max((v.denominator.bit_length() for v in values), default=0)


class Tracer:
    """Installs wrappers around TARGETS and aggregates the spans they open."""

    def __init__(self):
        self.stack = []  # open spans: [name, start, time covered by children]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.pair_calls = defaultdict(int)  # (parent, child) -> calls
        self.pair_s = defaultdict(float)  # (parent, child) -> total time
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.seen = defaultdict(set)
        self.op = 0
        self.op_self_s = 0.0
        self._patches = []
        self._hooks = {
            "graphs.automorphisms": self._on_automorphisms,
            "census.canonical_form": self._on_canonical_form,
            "positivity.edge_similarity_classes": self._on_edge_classes,
            "positivity.solve_weights": self._on_solve_weights,
            "algebra.leibniz_rows": self._on_leibniz_rows,
            "algebra.check_soliton": self._on_check_soliton,
            "rational.sparse_nullspace": self._on_sparse_nullspace,
        }

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "graphsolitons"]
        for metric, modname, attr in TARGETS:
            mod = importlib.import_module(f"graphsolitons.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(metric, original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(metric, original)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        stack = self.stack
        hook = self._hooks.get(name)

        def wrapper(*args, **kwargs):
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._close(frame, end)
            if hook is not None:
                t = perf_counter()
                hook(result, *args)
                spent = perf_counter() - t
                # Hook time is the tracer's, not the parent layer's.
                self.calls[HOOKS] += 1
                self.self_s[HOOKS] += spent
                self.op_self_s += spent
                if stack:
                    stack[-1][2] += spent
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _close(self, frame, end):
        name, start, covered = frame
        dur = end - start
        own = dur - covered
        self.calls[name] += 1
        self.self_s[name] += own
        self.op_self_s += own
        parent = self.stack[-1][0] if self.stack else None
        self.pair_calls[(parent, name)] += 1
        self.pair_s[(parent, name)] += dur
        if self.stack:
            self.stack[-1][2] += dur

    # ------------------------------------------------------------ counters

    def _on_automorphisms(self, result, g, *_):
        self.counts["aut.elements"] += len(result)
        self.seen["aut.graphs"].add((self.op, g.p, g.edges))

    def _on_canonical_form(self, result, *_):
        self.seen["canon.results"].add((self.op, result))

    def _on_edge_classes(self, result, g, *_):
        self.counts["edge_classes.classes"] += result[1]
        self.counts["edge_classes.edges"] += len(result[0])

    def _on_solve_weights(self, result, *_):
        bits = _den_bits(result.c)
        self.maxima["weights.den_bits"] = max(self.maxima["weights.den_bits"], bits)

    def _on_leibniz_rows(self, result, *_):
        self.counts["leibniz.rows"] += len(result)

    def _on_check_soliton(self, result, *_):
        self.counts["soliton.certified"] += type(result).__name__ == "SolitonCertificate"

    def _on_sparse_nullspace(self, result, rows, *_):
        self.counts["nullspace.rows_in"] += len(rows)
        self.counts["nullspace.nullity"] += len(result)
        self.counts["nullspace.nnz_out"] += sum(len(v) for v in result)
        bits = max((_den_bits(v.values()) for v in result), default=0)
        self.maxima["nullspace.den_bits"] = max(self.maxima["nullspace.den_bits"], bits)

    # ------------------------------------------------------------ results

    def begin_op(self, index: int) -> None:
        self.op = index
        self.op_self_s = 0.0

    def metrics(self, ops: int, overhead_frac: float, self_sum_frac_worst: float) -> dict:
        per = 1.0 / ops

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for metric, _mod, _attr in TARGETS:
            out[f"{metric}.calls"] = self.calls[metric] * per
            out[f"{metric}.self_s"] = self.self_s[metric] * per
        aut_calls = self.calls["graphs.automorphisms"]
        out["graphs.automorphisms.elements"] = self.counts["aut.elements"] * per
        out["graphs.automorphisms.distinct_ratio"] = ratio(len(self.seen["aut.graphs"]), aut_calls)
        out["census.canonical_form.useful_ratio"] = ratio(
            len(self.seen["canon.results"]), self.calls["census.canonical_form"]
        )
        out["positivity.edge_similarity_classes.shrink"] = ratio(
            self.counts["edge_classes.classes"], self.counts["edge_classes.edges"]
        )
        out["positivity.weights.max_den_bits"] = self.maxima["weights.den_bits"]
        out["algebra.leibniz_rows.rows"] = self.counts["leibniz.rows"] * per
        out["algebra.check_soliton.certified_ratio"] = ratio(
            self.counts["soliton.certified"], self.calls["algebra.check_soliton"]
        )
        out["rational.sparse_nullspace.rows_in"] = self.counts["nullspace.rows_in"] * per
        out["rational.sparse_nullspace.nullity"] = self.counts["nullspace.nullity"] * per
        out["rational.sparse_nullspace.nnz_out"] = self.counts["nullspace.nnz_out"] * per
        out["rational.sparse_nullspace.max_den_bits"] = self.maxima["nullspace.den_bits"]
        out["subspaces.canonical_subspace.elements"] = (
            self.pair_calls[("subspaces.canonical_subspace", "subspaces.apply_vertex_permutation")]
            * per
        )
        out["trace.overhead_frac"] = overhead_frac
        out["trace.self_sum_frac_worst"] = self_sum_frac_worst
        return {name: out[name] for name in PER_LAYER}

    def layer_table(self, ops: int) -> list:
        """(self seconds per op, span name), largest first, tracer hooks included."""
        return sorted(((s / ops, name) for name, s in self.self_s.items()), reverse=True)

    def call_tree(self, ops: int) -> dict:
        return {
            f"{parent} > {child}": {
                "calls": self.pair_calls[(parent, child)] / ops,
                "total_s": self.pair_s[(parent, child)] / ops,
            }
            for parent, child in sorted(self.pair_calls, key=str)
        }
