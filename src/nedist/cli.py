"""Command-line entry point.

Exit codes: 0 success, 1 usage error (bad flags/arguments), 2 data error
(unparseable inputs, internal invariant diagnostics).  All output is
deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .errors import NedistError, UsageError
from .experiments import (
    AnonymizationSpec,
    anonymize,
    deanonymize,
    k_effect_study,
    random_graph,
    scaling_study,
    ted_closeness_study,
)
from .graph import load_graph
from .assignment import min_cost_perfect_matching
from .ned import (TreeDistanceCache, hausdorff_graph_distance, signature,
                  signature_distance, tree_for)
from .oracle import (
    enumerate_trees,
    exact_ged_on_trees,
    exact_ted_star,
    exact_unordered_ted,
)
from .ted import UNIT, W_PLUS, WeightScheme, ted_star
from .tree import parse_tree_literal, to_tree_literal
from .vptree import build_index


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so run() owns exit codes."""

    def error(self, message):
        raise UsageError(message)


def _weights_arg(spec: str) -> WeightScheme:
    if spec == "unit":
        return UNIT
    if spec == "wplus":
        return W_PLUS
    rows = []
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                tokens = line.split()
                if len(tokens) != 3:
                    raise UsageError(
                        f"{spec}:{line_no}: weight lines are 'level w1 w2'")
                rows.append((int(tokens[0]), Fraction(tokens[1]), Fraction(tokens[2])))
    except OSError as exc:
        raise UsageError(f"cannot read weight file {spec}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"bad number in weight file {spec}: {exc}") from exc
    return WeightScheme.from_table(rows, name=spec)


def _number(x) -> str:
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x} ({float(x):g})"
    return str(x)


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


def _breakdown_rows(br):
    rows = []
    for i in range(br.levels):
        rows.append({
            "level": i + 1,
            "size_1": br.sizes_a[i],
            "size_2": br.sizes_b[i],
            "P": br.padding[i],
            "m": br.matching_raw[i],
            "M": br.matching[i],
            "R": br.reinserted[i],
        })
    return rows, ["level", "size_1", "size_2", "P", "m", "M", "R"]


def _build_parser() -> _Parser:
    top = _Parser(prog="nedist", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "csv"), default="plain")
    common.add_argument("--out", help="write results to this file instead of stdout")

    p = sub.add_parser("ktree", parents=[common],
                       help="print a node's k-level neighborhood tree")
    p.add_argument("--graph", required=True)
    p.add_argument("--node", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--directed", action="store_true")
    p.add_argument("--mode", choices=("undirected", "out", "in"), default=None)

    p = sub.add_parser("dist", parents=[common], help="distance between two tree literals")
    p.add_argument("--tree1", required=True)
    p.add_argument("--tree2", required=True)
    p.add_argument("--weights", default="unit")
    p.add_argument("--breakdown", action="store_true")

    p = sub.add_parser("ned", parents=[common], help="node distance across two graphs")
    p.add_argument("--graph1", required=True)
    p.add_argument("--node1", required=True)
    p.add_argument("--graph2", required=True)
    p.add_argument("--node2", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--weights", default="unit")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--breakdown", action="store_true")

    p = sub.add_parser("knn", parents=[common], help="nearest neighbors via the metric index")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--index-seed", type=int, default=0)
    p.add_argument("--query-graph", required=True)
    p.add_argument("--query-node", required=True)
    p.add_argument("-l", type=int, required=True)
    p.add_argument("--weights", default="unit")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--count-evals", action="store_true")

    p = sub.add_parser("graphdist", parents=[common], help="graph-to-graph distance")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--weights", default="unit")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("oracle", parents=[common], help="exhaustive ground-truth comparisons")
    p.add_argument("action", choices=("compare",))
    p.add_argument("--all", action="store_true")
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--depth-max", type=int, default=None)

    p = sub.add_parser("deanon", parents=[common], help="seeded de-anonymization experiment")
    p.add_argument("--graph", required=True)
    p.add_argument("--method", choices=("naive", "sparsify", "perturb"),
                   default="naive")
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("-l", type=int, required=True)
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", default="unit")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--tie-policy", choices=("inclusive", "exclusive"),
                   default="inclusive")
    p.add_argument("--ranker", choices=("ned", "degree"), default="ned")

    p = sub.add_parser("study", help="batch experiment harnesses")
    study = p.add_subparsers(dest="study", required=True)

    q = study.add_parser("ted-closeness", parents=[common])
    q.add_argument("--nmax", type=int, default=6)

    q = study.add_parser("scaling", parents=[common])
    q.add_argument("--sizes", default="50,100,200,500")
    q.add_argument("--ks", default="3")
    q.add_argument("--pairs", type=int, default=5)
    q.add_argument("--seed", type=int, default=0)

    q = study.add_parser("k-effect", parents=[common])
    q.add_argument("--nodes", type=int, default=200)
    q.add_argument("--edges", type=int, default=400)
    q.add_argument("--queries", type=int, default=50)
    q.add_argument("--k-range", default="1:6")
    q.add_argument("-l", type=int, default=5)
    q.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("match", parents=[common], help="solve a cost-matrix matching (debugging)")
    p.add_argument("--matrix", required=True)

    return top


def _cmd_ktree(args, emit):
    g = load_graph(args.graph, directed=args.directed)
    mode = args.mode or ("out" if args.directed else "undirected")
    t = tree_for(g, args.node, args.k, mode)
    emit([to_tree_literal(t)])


def _cmd_dist(args, emit, fmt):
    w = _weights_arg(args.weights)
    t1 = parse_tree_literal(args.tree1)
    t2 = parse_tree_literal(args.tree2)
    total, br = ted_star(t1, t2, w)
    if args.breakdown:
        rows, cols = _breakdown_rows(br)
        emit(_rows_to_lines(rows, cols, fmt) + [f"total {_number(total)}"])
    else:
        emit([_number(total)])


def _cmd_ned(args, emit, fmt):
    w = _weights_arg(args.weights)
    g1 = load_graph(args.graph1, directed=args.directed)
    g2 = load_graph(args.graph2, directed=args.directed)
    breakdowns = []

    def tree_distance(a, b):
        d, br = ted_star(a, b, w)
        breakdowns.append(br)
        return d

    total = signature_distance(args.directed, tree_distance)(
        signature(g1, args.node1, args.k), signature(g2, args.node2, args.k))
    if not args.breakdown:
        emit([_number(total)])
    elif args.directed:
        lines = []
        for tag, br in zip(("in", "out"), breakdowns):
            rows, cols = _breakdown_rows(br)
            lines += [f"[{tag} tree]"] + _rows_to_lines(rows, cols, fmt)
        emit(lines + [_number(total)])
    else:
        rows, cols = _breakdown_rows(breakdowns[0])
        emit(_rows_to_lines(rows, cols, fmt) + [f"total {_number(total)}"])


def _cmd_knn(args, emit, fmt):
    w = _weights_arg(args.weights)
    g = load_graph(args.graph, directed=args.directed)
    gq = load_graph(args.query_graph, directed=args.directed)
    cache = TreeDistanceCache(w)
    index = build_index(g, args.k, weights=w, seed=args.index_seed, cache=cache)
    results, evals = index.knn(signature(gq, args.query_node, args.k), args.l)
    rows = [{"node": lab, "distance": _number(d)} for lab, d in results]
    lines = _rows_to_lines(rows, ["node", "distance"], fmt)
    if args.count_evals:
        lines.append(f"evaluations {evals} of {len(index)}")
    emit(lines)


def _cmd_graphdist(args, emit):
    w = _weights_arg(args.weights)
    g1 = load_graph(args.graph1, directed=args.directed)
    g2 = load_graph(args.graph2, directed=args.directed)
    d = hausdorff_graph_distance(g1, g2, args.k, weights=w,
                                 sample=args.sample, seed=args.seed)
    emit([_number(d)])


def _cmd_oracle(args, emit, fmt):
    if not args.all:
        raise UsageError("oracle compare requires --all")
    trees = list(enumerate_trees(args.nmax, args.depth_max or 10**9))
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
    emit(_rows_to_lines(rows, cols, fmt))


def _cmd_deanon(args, emit, fmt):
    w = _weights_arg(args.weights)
    g = load_graph(args.graph, directed=args.directed)
    anon, truth = anonymize(g, AnonymizationSpec(args.method, p=args.p,
                                                 seed=args.seed))
    report = deanonymize(g, anon, truth, k=args.k, l=args.l,
                         sample_size=args.sample, seed=args.seed, weights=w,
                         tie_policy=args.tie_policy, method=args.ranker)
    rows = [{"anon_node": r.anon_node, "true_id": r.true_id, "rank": r.rank,
             "hit": int(r.hit)} for r in report.rows]
    lines = _rows_to_lines(rows, ["anon_node", "true_id", "rank", "hit"], fmt)
    lines.append(f"precision {report.precision:.4f} "
                 f"(l={report.l} k={report.k} queries={report.sample_size} "
                 f"ties={report.tie_policy} ranker={report.method})")
    emit(lines)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}") from exc


def _cmd_study(args, emit, fmt):
    if args.study == "ted-closeness":
        st = ted_closeness_study(n_max=args.nmax)
        rows = [{"pairs": st.pairs,
                 "mean_rel_err": f"{st.mean_relative_error:.4f}",
                 "stddev_rel_err": f"{st.stddev_relative_error:.4f}",
                 "equality_ratio": f"{st.equality_ratio:.4f}"}]
        lines = _rows_to_lines(rows, list(rows[0]), fmt)
        depth_rows = [{"depth": d, "equality_ratio": f"{r:.4f}"}
                      for d, r in st.per_depth_equality.items()]
        lines += _rows_to_lines(depth_rows, ["depth", "equality_ratio"], fmt)
        emit(lines)
    elif args.study == "scaling":
        rows = scaling_study(sizes=tuple(_parse_int_list(args.sizes)),
                             ks=tuple(_parse_int_list(args.ks)),
                             pairs_per_bucket=args.pairs, seed=args.seed)
        for r in rows:
            for key in ("median_ms", "p90_ms", "mean_ms"):
                r[key] = f"{r[key]:.3f}"
        emit(_rows_to_lines(rows, ["size", "k", "pairs", "median_ms",
                                   "p90_ms", "mean_ms"], fmt))
    else:
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
        emit(_rows_to_lines(rows, ["k", "queries", "mean_nn0", "mean_ties"], fmt))


def _cmd_match(args, emit):
    matrix = []
    try:
        with open(args.matrix, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                matrix.append([Fraction(tok) for tok in line.split()])
    except OSError as exc:
        raise UsageError(f"cannot read matrix file {args.matrix}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"bad matrix entry: {exc}") from exc
    cost, assignment = min_cost_perfect_matching(matrix)
    emit([f"cost {_number(cost)}", "assignment " + " ".join(map(str, assignment))])


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        fmt = args.format
        emit = lambda lines: _emit(args.out, lines)
        if args.command == "ktree":
            _cmd_ktree(args, emit)
        elif args.command == "dist":
            _cmd_dist(args, emit, fmt)
        elif args.command == "ned":
            _cmd_ned(args, emit, fmt)
        elif args.command == "knn":
            _cmd_knn(args, emit, fmt)
        elif args.command == "graphdist":
            _cmd_graphdist(args, emit)
        elif args.command == "oracle":
            _cmd_oracle(args, emit, fmt)
        elif args.command == "deanon":
            _cmd_deanon(args, emit, fmt)
        elif args.command == "study":
            _cmd_study(args, emit, fmt)
        elif args.command == "match":
            _cmd_match(args, emit)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NedistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
