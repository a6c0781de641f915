"""Command-line entry point.

Exit codes: 0 success, 1 usage error (bad flags/arguments), 2 data error
(an input file that cannot be read or parsed, internal invariant
diagnostics).  All output is deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .errors import NedistError, UsageError
from .experiments import (
    ANON_METHODS,
    AnonymizationSpec,
    anonymize,
    deanonymize,
    k_effect_study,
    random_graph,
    scaling_study,
    ted_closeness_study,
)
from .graph import load_graph
from .ned import TreeDistanceCache, signature, signature_trees, tree_for
from .oracle import (
    enumerate_trees,
    exact_ged_on_trees,
    exact_ted_star,
    exact_unordered_ted,
)
from .ted import UNIT, W_PLUS, WeightScheme, as_distance, ted_star
from .tree import parse_tree_literal, to_tree_literal
from .vptree import build_index, hausdorff_graph_distance


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so run() owns exit codes."""

    def error(self, message):
        raise UsageError(message)


def _weights_arg(spec: str) -> WeightScheme:
    """A named scheme, or the table of the weight file at ``spec``: its lines
    that are neither blank nor a '#' comment each hold 'level w1 w2'."""
    if spec == "unit":
        return UNIT
    if spec == "wplus":
        return W_PLUS
    rows = []
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                tokens = raw.split()
                if not tokens or tokens[0].startswith("#"):
                    continue
                if len(tokens) != 3:
                    raise NedistError(f"{spec}:{line_no}: weight lines are 'level w1 w2'")
                rows.append((int(tokens[0]), Fraction(tokens[1]), Fraction(tokens[2])))
    except OSError as exc:
        raise NedistError(f"cannot read weight file {spec}: {exc}") from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise NedistError(f"bad number in weight file {spec}: {exc}") from exc
    return WeightScheme.from_table(rows, name=spec)


def _number(x) -> str:
    return f"{x} ({float(x):g})" if isinstance(x, Fraction) else str(x)


def _emit(out, lines):
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_lines(rows, columns, fmt: str):
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(str(r[c]) for c in columns) for r in rows]
        return lines
    widths = [max(len(c), *(len(str(r[c])) for r in rows)) if rows else len(c)
              for c in columns]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    for r in rows:
        lines.append("  ".join(str(r[c]).ljust(w) for c, w in zip(columns, widths)))
    return lines


def _breakdown_lines(br, fmt: str):
    columns = ["level", "size_1", "size_2", "P", "m", "M", "R"]
    rows = zip(range(1, br.levels + 1), br.sizes_a, br.sizes_b, br.padding,
               br.matching_raw, br.matching, br.reinserted)
    return _rows_to_lines([dict(zip(columns, row)) for row in rows], columns, fmt)


def _flags(*names, **spec) -> argparse.ArgumentParser:
    """A parent parser holding one flag, for every command that takes it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **spec)
    return parent


def _build_parser() -> _Parser:
    top = _Parser(prog="nedist", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    common = _flags("--format", choices=("plain", "csv"), default="plain")
    common.add_argument("--out", help="write results to this file instead of stdout")
    depth = _flags("--k", type=int, required=True)
    depth.add_argument("--directed", action="store_true")
    top_l = _flags("-l", type=int, required=True)
    weights = _flags("--weights", type=_weights_arg, default=UNIT)
    seed = _flags("--seed", type=int, default=0)
    breakdown = _flags("--breakdown", action="store_true")
    count_evals = _flags("--count-evals", action="store_true")
    nmax = _flags("--nmax", type=int, default=6)

    def command(subs, name, handler, *parents, **kw):
        p = subs.add_parser(name, parents=[common, *parents], **kw)
        p.set_defaults(handler=handler)
        return p

    p = command(sub, "ktree", _cmd_ktree, depth,
                help="print a node's k-level neighborhood tree")
    p.add_argument("--graph", required=True)
    p.add_argument("--node", required=True)
    p.add_argument("--mode", choices=("undirected", "out", "in"), default=None)

    p = command(sub, "dist", _cmd_dist, weights, breakdown,
                help="distance between two tree literals")
    p.add_argument("--tree1", required=True)
    p.add_argument("--tree2", required=True)

    p = command(sub, "ned", _cmd_ned, depth, weights, breakdown,
                help="node distance across two graphs")
    p.add_argument("--graph1", required=True)
    p.add_argument("--node1", required=True)
    p.add_argument("--graph2", required=True)
    p.add_argument("--node2", required=True)

    p = command(sub, "knn", _cmd_knn, depth, top_l, weights, count_evals,
                help="exact nearest neighbors via the index")
    p.add_argument("--graph", required=True)
    p.add_argument("--query-graph", required=True)
    p.add_argument("--query-node", required=True)

    p = command(sub, "graphdist", _cmd_graphdist, depth, weights,
                help="graph-to-graph distance")
    p.add_argument("graph1")
    p.add_argument("graph2")

    p = command(sub, "oracle", _cmd_oracle, nmax, help="exhaustive ground-truth comparisons")
    p.add_argument("--depth-max", type=int, default=10**9)

    p = command(sub, "deanon", _cmd_deanon, depth, top_l, weights, seed, count_evals,
                help="seeded de-anonymization experiment")
    p.add_argument("--graph", required=True)
    p.add_argument("--method", choices=ANON_METHODS, default="naive")
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--tie-policy", choices=("inclusive", "exclusive"),
                   default="inclusive")
    p.add_argument("--ranker", choices=("ned", "degree"), default="ned")

    study = sub.add_parser("study", help="batch experiment harnesses").add_subparsers(
        dest="study", required=True)
    command(study, "ted-closeness", _cmd_ted_closeness, nmax)

    q = command(study, "scaling", _cmd_scaling, seed)
    q.add_argument("--sizes", default="50,100,200,500")
    q.add_argument("--ks", default="3")
    q.add_argument("--pairs", type=int, default=5)

    q = command(study, "k-effect", _cmd_k_effect, seed)
    q.add_argument("--nodes", type=int, default=200)
    q.add_argument("--edges", type=int, default=400)
    q.add_argument("--queries", type=int, default=50)
    q.add_argument("--k-range", default="1:6")
    q.add_argument("-l", type=int, default=5)

    return top


def _cmd_ktree(args):
    g = load_graph(args.graph, directed=args.directed)
    mode = args.mode or ("out" if args.directed else "undirected")
    return [to_tree_literal(tree_for(g, args.node, args.k, mode))]


def _cmd_dist(args):
    total, br = ted_star(parse_tree_literal(args.tree1), parse_tree_literal(args.tree2),
                         args.weights)
    if not args.breakdown:
        return [_number(total)]
    return _breakdown_lines(br, args.format) + [f"total {_number(total)}"]


def _cmd_ned(args):
    g1 = load_graph(args.graph1, directed=args.directed)
    g2 = load_graph(args.graph2, directed=args.directed)
    results = [ted_star(a, b, args.weights) for a, b in zip(
        signature_trees(signature(g1, args.node1, args.k)),
        signature_trees(signature(g2, args.node2, args.k)))]
    total = as_distance(sum(d for d, _ in results))
    if not args.breakdown:
        return [_number(total)]
    lines = []
    for tag, (_, br) in zip(("in", "out"), results):   # one breakdown when undirected
        lines += [f"[{tag} tree]"] * args.directed + _breakdown_lines(br, args.format)
    return lines + [f"total {_number(total)}"]


def _cmd_knn(args):
    g = load_graph(args.graph, directed=args.directed)
    gq = load_graph(args.query_graph, directed=args.directed)
    index = build_index(g, args.k, cache=TreeDistanceCache(args.weights))
    results, evals = index.knn(signature(gq, args.query_node, args.k), args.l)
    rows = [{"node": lab, "distance": _number(d)} for lab, d in results]
    lines = _rows_to_lines(rows, ["node", "distance"], args.format)
    if args.count_evals:
        lines.append(f"evaluations {evals} of {len(index)}")
    return lines


def _cmd_graphdist(args):
    g1 = load_graph(args.graph1, directed=args.directed)
    g2 = load_graph(args.graph2, directed=args.directed)
    d = hausdorff_graph_distance(g1, g2, args.k, cache=TreeDistanceCache(args.weights))
    return [_number(d)]


def _cmd_oracle(args):
    trees = list(enumerate_trees(args.nmax, args.depth_max))
    rows = []
    for i in range(len(trees)):
        for j in range(i, len(trees)):
            a, b = trees[i], trees[j]
            rows.append({
                "tree1": a.canonical_literal(),
                "tree2": b.canonical_literal(),
                "ted_star": ted_star(a, b)[0],
                "exact_ted_star": exact_ted_star(a, b),
                "exact_ted": exact_unordered_ted(a, b),
                "exact_ged": exact_ged_on_trees(a, b),
                "wplus": _number(ted_star(a, b, W_PLUS)[0]),
            })
    cols = ["tree1", "tree2", "ted_star", "exact_ted_star",
            "exact_ted", "exact_ged", "wplus"]
    return _rows_to_lines(rows, cols, args.format)


def _cmd_deanon(args):
    g = load_graph(args.graph, directed=args.directed)
    anon, truth = anonymize(g, AnonymizationSpec(args.method, p=args.p,
                                                 seed=args.seed))
    report = deanonymize(g, anon, truth, k=args.k, l=args.l,
                         sample_size=args.sample, seed=args.seed,
                         tie_policy=args.tie_policy, method=args.ranker,
                         cache=TreeDistanceCache(args.weights))
    rows = [{"anon_node": r.anon_node, "true_id": r.true_id, "rank": r.rank,
             "hit": int(r.hit)} for r in report.rows]
    lines = _rows_to_lines(rows, ["anon_node", "true_id", "rank", "hit"], args.format)
    lines.append(f"precision {report.precision:.4f} "
                 f"(l={report.l} k={report.k} queries={report.sample_size} "
                 f"ties={report.tie_policy} ranker={report.method})")
    if args.count_evals:
        lines.append(f"evaluations {report.evaluations} of {report.sample_size * g.n}")
    return lines


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}") from exc


def _cmd_ted_closeness(args):
    st = ted_closeness_study(n_max=args.nmax)
    rows = [{"pairs": st.pairs,
             "mean_rel_err": f"{st.mean_relative_error:.4f}",
             "stddev_rel_err": f"{st.stddev_relative_error:.4f}",
             "equality_ratio": f"{st.equality_ratio:.4f}"}]
    depth_rows = [{"depth": d, "equality_ratio": f"{r:.4f}"}
                  for d, r in st.per_depth_equality.items()]
    return (_rows_to_lines(rows, list(rows[0]), args.format)
            + _rows_to_lines(depth_rows, ["depth", "equality_ratio"], args.format))


def _cmd_scaling(args):
    rows = scaling_study(sizes=tuple(_parse_int_list(args.sizes)),
                         ks=tuple(_parse_int_list(args.ks)),
                         pairs_per_bucket=args.pairs, seed=args.seed)
    for r in rows:
        for key in ("median_ms", "p90_ms", "mean_ms"):
            r[key] = f"{r[key]:.3f}"
    return _rows_to_lines(rows, ["size", "k", "pairs", "median_ms", "p90_ms", "mean_ms"],
                          args.format)


def _cmd_k_effect(args):
    lo, _, hi = args.k_range.partition(":")
    try:
        k_range = range(int(lo), int(hi) + 1)
    except ValueError as exc:
        raise UsageError(f"bad k range {args.k_range!r}") from exc
    g1 = random_graph(args.nodes, args.edges, seed=args.seed)
    g2 = random_graph(args.nodes, args.edges, seed=args.seed + 1)
    rows = k_effect_study(g1, g2, num_queries=args.queries,
                          k_range=k_range, l=args.l, seed=args.seed)
    for r in rows:
        r["mean_nn0"] = f"{r['mean_nn0']:.2f}"
        r["mean_ties"] = f"{r['mean_ties']:.2f}"
    return _rows_to_lines(rows, ["k", "queries", "mean_nn0", "mean_ties"], args.format)


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _emit(args.out, args.handler(args))
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NedistError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
