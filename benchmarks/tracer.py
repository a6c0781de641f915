"""Per-layer tracing by wrapping the library's functions from outside.

Each hook replaces a function at the name its callers look it up by: a
package attribute the benchmark calls (``nedist.build_index``), a module
global the library calls (``nedist.ted.matching_with_duals``, not the name in
``nedist.assignment``), or a method on its class.  Nothing in the library is
edited, and ``uninstall`` puts every original back.

A span records calls, inclusive time and self time (its time minus the time
of the spans nested in it).  Counts observed at the same boundaries (matrix
sizes, index evaluations) go to ``counts``.
"""

from __future__ import annotations

import importlib
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}     # name -> [calls, inclusive_s, self_s]
        self.counts: dict[str, int] = {}
        self._stack = [0.0]                  # time of the spans nested in each open span
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def span(self, name: str, fn, observe=None):
        """``fn`` wrapped in a span; ``observe(result, args)`` sees each result."""
        acc = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack[-2] += elapsed
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - stack.pop()
            if observe is not None:
                observe(result, args)
            return result

        return traced

    def memo_span(self, name: str, fn, memo_attr: str):
        """Span for a memoizing method that times only the calls that compute.

        A call that finds ``memo_attr`` already set on the instance counts as
        a call of ``name`` but opens no span, since timing a memo hit would
        cost more than the hit.  Its time stays in the caller's self time.
        """
        timed = self.span(name, fn)
        acc = self.spans[name]

        def memoized(obj):
            memo = getattr(obj, memo_attr, None)
            if memo is None:
                return timed(obj)
            acc[0] += 1
            return memo

        return memoized

    # -- installation ---------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        """Hook every layer of the imported ``nedist`` package."""
        pkg = importlib.import_module("nedist")
        # submodules through importlib: the attribute ``nedist.ned`` is the function
        ted, ned, tree, vptree = (importlib.import_module(f"nedist.{m}")
                                  for m in ("ted", "ned", "tree", "vptree"))

        def hook(owner, attr, name, observe=None):
            self._patch(owner, attr, self.span(name, owner.__dict__[attr], observe))

        # names the benchmark calls
        hook(pkg, "parse_edge_list", "graph.parse")
        hook(pkg, "anonymize", "experiments.anonymize")
        hook(pkg, "build_index", "vptree.build",
             lambda index, args: self.count("vptree.build.evals", index.eval_count))
        self._patch(pkg, "deanonymize",
                    self.span("experiments.deanonymize",
                              self._counting_deanonymize(pkg.deanonymize)))
        ted_distance = self.span("ted.distance", ted.ted_star_distance_only)
        self._patch(pkg, "ted_star_distance_only", ted_distance)
        for method in ("knn", "range_query"):
            kind = method.split("_")[0]
            hook(vptree.VpIndex, method, f"vptree.{kind}", self._evals_observer(kind))

        # names the library calls
        self._patch(ned, "ted_star_distance_only", ted_distance)
        hook(ned, "extract_k_adjacent_tree", "tree.extract")
        hook(ned, "parse_tree_literal", "tree.parse")
        hook(ned.TreeDistanceCache, "distance", "ned.cache")
        self._patch(tree.LevelTree, "canonical_literal",
                    self.memo_span("tree.canonical", tree.LevelTree.canonical_literal,
                                   "_canon"))
        hook(ted, "canonize_level", "ted.canonize")
        hook(ted, "build_bipartite_weights", "ted.bipartite",
             lambda W, args: self.count("ted.bipartite.cells", W.size))
        hook(ted, "matching_with_duals", "assignment.matching", self._observe_matching)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- observers ------------------------------------------------------

    def _observe_matching(self, result, args):
        n = args[0].shape[0]
        self.count("assignment.n_sum", n)
        self.counts["assignment.max_n"] = max(self.counts.get("assignment.max_n", 0), n)

    def _evals_observer(self, kind: str):
        def observe(result, args):
            self.count(f"vptree.{kind}.queries")
            self.count(f"vptree.{kind}.evals", result[1])
        return observe

    def _counting_deanonymize(self, fn):
        cache_calls = self.spans.setdefault("ned.cache", [0, 0.0, 0.0])

        def deanonymize(*args, **kwargs):
            before = cache_calls[0]
            report = fn(*args, **kwargs)
            self.count("experiments.queries", report.sample_size)
            self.count("experiments.evals", cache_calls[0] - before)
            return report

        return deanonymize

    # -- reading --------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0,))[0]

    def inclusive(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]
