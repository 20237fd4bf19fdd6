"""Spans around the public, module-level entry points of each ordcalc layer.

Installing a ``Tracer`` replaces those functions, in the modules that call
them, by wrappers that record a span: name, start, end, parent span and
query id.  Spans stay in memory until ``write`` is called.  A layer's self
time is the duration of its spans minus the time their child spans cover.
The hottest helpers of ``freegroup`` (``mul``, ``reduce`` and kin) get no
span: they run millions of times, and their cost shows in their callers'
self time.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter_ns

_NAME, _START, _END, _PARENT, _QUERY, _SELF = range(6)

# Workload on which each layer should do most of its work; a traced run of
# that workload fails when the layer's wrappers see no call.
HOME = {
    "membership": "hard-search",
    "rightorder": "hard-search",
    "fourier_motzkin": "query-mix",
    "abelian": "query-mix",
    "biorder": "query-mix",
    "witnesses": "query-mix",
    "term": "query-mix",
    "cli": "query-mix",
    "calculus": "big-proofs",
    "certio": "big-proofs",
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def derivation_nodes(derivation) -> int:
    count, stack = 0, [derivation]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.premises)
    return count


def tree_nodes(tree) -> int:
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        if hasattr(node, "pivot"):
            stack.extend((node.positive, node.negative))
    return count


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.query = -1
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.query, 0])
        self._stack.append(index)
        self._child_ns.append(0)
        return index

    def close(self, index: int) -> None:
        end = perf_counter_ns()
        span = self.spans[index]
        duration = end - span[_START]
        span[_END] = end
        self._stack.pop()
        span[_SELF] = duration - self._child_ns.pop()
        if self._child_ns:
            self._child_ns[-1] += duration

    def start_query(self, query_id: int) -> None:
        # A query cut by the alarm may leave spans open; they end here.
        self._stack.clear()
        self._child_ns.clear()
        self.query = query_id

    def _inside(self, prefix: str) -> bool:
        return any(self.spans[i][_NAME].startswith(prefix) for i in self._stack)

    # -- wrappers ------------------------------------------------------

    def wrap(self, name: str, fn, count=None, only_under: str | None = None):
        """``count(counts, args, result)`` runs after the span closes, in a
        ``trace.count`` span of its own, so its cost is nobody's self time."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if only_under is not None and not (
                tracer._stack and tracer.spans[tracer._stack[-1]][_NAME] == only_under
            ):
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if count is not None:
                index = tracer.open("trace.count")
                try:
                    count(tracer.counts, args, result)
                finally:
                    tracer.close(index)
            return result

        return traced

    def patch(self, owners, attr: str, name: str, **options) -> None:
        """Wrap ``attr`` once and bind the wrapper in every owner that calls it."""
        fn = getattr(owners[0], attr)
        traced = self.wrap(name, fn, **options)
        for owner in owners:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, traced)

    def install(self) -> None:
        from ordcalc import (
            abelian,
            biorder,
            calculus,
            certio,
            cli,
            fourier_motzkin,
            freegroup,
            membership,
            rightorder,
            term,
            witnesses,
        )

        tracer = self
        patch = self.patch
        patch([cli], "main", "cli.main")
        for attr in ("parse_term", "normalize"):
            patch([term], attr, f"term.{attr}", only_under="cli.main")
        for attr in ("scan_literals", "word_from_text"):
            patch([freegroup], attr, f"term.{attr}", only_under="cli.main")

        for attr in (
            "decide_lg_cs",
            "decide_lg_hm",
            "decide_rg",
            "extend_right_order",
            "rg_refute_bounded",
            "cis",
            "initial_subterms",
            "close_truncated",
        ):
            patch([rightorder], attr, f"rightorder.{attr}")

        def identity_counts(counts, args, result):
            counts["membership.generators"] += len(args[0])
            counts["membership.found"] += bool(result[0])

        def pair_counts(counts, args, result):
            counts["membership.epsilon_pairs"] += len(args[0].epsilon)

        patch([membership], "contains_identity", "membership.contains_identity",
              count=identity_counts)
        patch([membership.WordAutomaton], "saturate", "membership.saturate",
              count=pair_counts)

        patch([fourier_motzkin], "solve", "fourier_motzkin.solve")

        def separator_counts(counts, args, result):
            counts["abelian.separator_found"] += result is not None

        for attr in ("validity_abelian", "decide_abelian", "find_combination"):
            patch([abelian], attr, f"abelian.{attr}")
        patch([abelian], "find_separator", "abelian.find_separator",
              count=separator_counts)

        def side_counts(counts, args, result):
            counts["biorder.one_sided"] += result is not None

        patch([biorder], "magnus_sign", "biorder.magnus_sign")
        patch([biorder], "uniform_sign", "biorder.uniform_sign", count=side_counts)

        def derive_counts(counts, args, result):
            counts["calculus.derive.nodes"] += derivation_nodes(result)

        def tree_derive_counts(counts, args, result):
            derive_counts(counts, args, result)
            # the refutation tree the search hands over for extraction
            counts["rightorder.tree_nodes"] += tree_nodes(args[1])

        def check_counts(counts, args, result):
            if not tracer._inside("calculus.derive."):
                counts["calculus.check.nodes"] += derivation_nodes(args[1])

        for attr in ("derive_ga", "gv_axiom"):
            patch([calculus], attr, f"calculus.derive.{attr}", count=derive_counts)
        for attr in ("derive_glgstar", "derive_grgstar"):
            patch([calculus], attr, f"calculus.derive.{attr}", count=tree_derive_counts)
        patch([calculus], "check", "calculus.check.check", count=check_counts)

        def byte_counts(counts, args, result):
            counts["certio.bytes_written"] += len(result.encode())

        for attr in (
            "proof_doc",
            "truncated_order_doc",
            "separator_doc",
            "abelian_order_doc",
            "sign_assignment_doc",
            "bounds_doc",
            "refutation_doc",
        ):
            patch([certio], attr, f"certio.dump.{attr}")
        patch([certio], "dumps", "certio.dump.dumps", count=byte_counts)
        patch([certio], "loads", "certio.load.loads")
        patch([certio], "load_proof", "certio.load.load_proof")
        patch([certio], "verify_witness_doc", "certio.verify_witness.verify_witness_doc")

        patch([witnesses, certio, calculus], "verify_refutation_tree",
              "witnesses.verify.verify_refutation_tree")
        patch([witnesses.TruncatedRightOrder], "violations",
              "witnesses.verify.violations")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, query, _ in self.spans:
                handle.write(json.dumps([name, start, end, parent, query]) + "\n")

    # -- per-layer metrics --------------------------------------------

    def _has_ancestor(self, index: int, prefix: str) -> bool:
        parent = self.spans[index][_PARENT]
        while parent >= 0:
            if self.spans[parent][_NAME].startswith(prefix):
                return True
            parent = self.spans[parent][_PARENT]
        return False

    def metrics(self, groups: list[str], cache_hits: int, cache_misses: int) -> dict:
        """Per-layer metrics, per query unless they are ratios.

        ``groups[q]`` labels query ``q`` (its procedure); the share of
        decide time each layer takes is also reported per label.
        """
        queries = len(groups)
        self_ns: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        entries: Counter[str] = Counter()
        selfcheck_ns = 0
        roots: list[int] = []
        decide_ns: Counter[tuple[str, str]] = Counter()
        for index, (name, start, end, parent, query, own) in enumerate(self.spans):
            layer = layer_of(name)
            calls[name] += 1
            roots.append(index if parent < 0 else roots[parent])
            if parent < 0 or layer_of(self.spans[parent][_NAME]) != layer:
                entries[layer] += 1
            label = groups[query]
            if parent < 0 and name == "bench.decide":
                decide_ns[label, "total"] += max(end - start, 0)
            elif self.spans[roots[-1]][_NAME] == "bench.decide":
                decide_ns[label, layer] += own
            self_ns[layer] += own
            part = name.rsplit(".", 1)[0]
            if name == "calculus.check.check" and self._has_ancestor(
                index, "calculus.derive."
            ):
                selfcheck_ns += max(end - start, 0)
            elif part != layer:
                self_ns[part] += own

        c = self.counts

        def ms(ns):
            return ns / 1e6 / queries

        def per_query(n):
            return n / queries

        def ratio(part, whole):
            return part / whole if whole else 0.0

        contains = calls["membership.contains_identity"]
        separators = calls["abelian.find_separator"]
        uniform = calls["biorder.uniform_sign"]
        values = {
            "membership.self_ms": (ms(self_ns["membership"]), "ms/query"),
            "membership.calls": (per_query(contains), "calls/query"),
            "membership.generators_per_call": (
                ratio(c["membership.generators"], contains), "words/call"),
            "membership.epsilon_pairs": (
                per_query(c["membership.epsilon_pairs"]), "pairs/query"),
            "membership.identity_found_ratio": (
                ratio(c["membership.found"], contains), "ratio"),
            "fourier_motzkin.self_ms": (ms(self_ns["fourier_motzkin"]), "ms/query"),
            "fourier_motzkin.calls": (
                per_query(calls["fourier_motzkin.solve"]), "calls/query"),
            "abelian.self_ms": (ms(self_ns["abelian"]), "ms/query"),
            "abelian.find_separator.calls": (per_query(separators), "calls/query"),
            "abelian.separator_found_ratio": (
                ratio(c["abelian.separator_found"], separators), "ratio"),
            "biorder.self_ms": (ms(self_ns["biorder"]), "ms/query"),
            "biorder.calls": (per_query(entries["biorder"]), "calls/query"),
            "biorder.cache_hit_ratio": (
                ratio(cache_hits, cache_hits + cache_misses), "ratio"),
            "biorder.one_sided_ratio": (ratio(c["biorder.one_sided"], uniform), "ratio"),
            "rightorder.self_ms": (ms(self_ns["rightorder"]), "ms/query"),
            "rightorder.calls": (per_query(entries["rightorder"]), "calls/query"),
            "rightorder.tree_nodes": (per_query(c["rightorder.tree_nodes"]), "nodes/query"),
            "calculus.derive.self_ms": (ms(self_ns["calculus.derive"]), "ms/query"),
            "calculus.derive.nodes": (per_query(c["calculus.derive.nodes"]), "nodes/query"),
            "calculus.selfcheck_ms": (ms(selfcheck_ns), "ms/query"),
            "calculus.check.self_ms": (ms(self_ns["calculus.check"]), "ms/query"),
            "calculus.check.nodes": (per_query(c["calculus.check.nodes"]), "nodes/query"),
            "certio.dump.self_ms": (ms(self_ns["certio.dump"]), "ms/query"),
            "certio.load.self_ms": (ms(self_ns["certio.load"]), "ms/query"),
            "certio.verify_witness.self_ms": (
                ms(self_ns["certio.verify_witness"]), "ms/query"),
            "certio.bytes_written": (per_query(c["certio.bytes_written"]), "B/query"),
            "witnesses.verify.self_ms": (ms(self_ns["witnesses.verify"]), "ms/query"),
            "term.self_ms": (ms(self_ns["term"]), "ms/query"),
            "cli.self_ms": (ms(self_ns["cli"]), "ms/query"),
        }
        labels = sorted({group for group, _ in decide_ns})
        for group in labels:
            for key in [k for k in decide_ns if k[0] == group]:
                decide_ns["all", key[1]] += decide_ns[key]
        decide_share = {
            group: {
                layer: ratio(decide_ns[group, layer], decide_ns[group, "total"])
                for layer in HOME
            }
            for group in ["all", *labels]
        }
        return {
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
            "layer_calls": {layer: entries[layer] for layer in HOME},
            "layer_self_ms": {layer: ms(self_ns[layer]) for layer in HOME},
            "decide_ms": ms(decide_ns["all", "total"]),
            "decide_share": decide_share,
            "spans": len(self.spans),
        }
