"""Command-line front end.

stdout carries machine-readable payload only (JSON or edge-list text);
human diagnostics go to stderr. Exit codes: 0 success/feasible,
1 infeasible or suboptimal, 2 usage error, 3 precondition violation
(witness on stderr), 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import Optional

from . import oracle, solver
from .errors import BudgetExceededError, McpsError, NotDspError, NotLspError
from .flow import RetentionRatio, check_all_pairs, max_flow_value
from .graphs import DirectedGraph, EdgeSet, ascii_int, parse_edge_list, to_dot, to_edge_list
from .lsp import is_lsp
from .spdecomp import recognize_dsp

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4


def _read_graph(path: str) -> DirectedGraph:
    if path == "-":
        return parse_edge_list(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _emit(payload) -> None:
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")


def _witness_lines(witness) -> list[str]:
    lines = [f"dsp_reason: {witness.reason}"]
    if witness.cycle is not None:
        lines.append("cycle: " + " ".join(map(str, witness.cycle)))
    if witness.sources is not None:
        lines.append("sources: " + " ".join(map(str, witness.sources)))
    if witness.sinks is not None:
        lines.append("sinks: " + " ".join(map(str, witness.sinks)))
    if witness.w is not None:
        lines.append("w_branch: " + " ".join(map(str, witness.w.branch)))
        for key in ("a->b", "a->c", "b->c", "b->d", "c->d"):
            path = witness.w.paths[key]
            lines.append(f"w_path {key}: " + " ".join(map(str, path)))
    return lines


def _cmd_solve(args) -> int:
    graph = _read_graph(args.input)
    alpha = RetentionRatio.parse(args.alpha)
    sol = solver.solve(graph, alpha, mode=args.mode, oracle_budget=args.oracle_budget)
    if args.dot:  # before the payload, so that a failed write leaves stdout empty
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(graph, highlight=sol.edges))
    _emit(sol.to_json_dict(graph))
    return EXIT_OK


def _cmd_recognize(args) -> int:
    graph = _read_graph(args.input)
    tree = dsp_witness = None
    try:
        tree = recognize_dsp(graph)
    except NotDspError as err:
        dsp_witness = err.witness
    verdict = is_lsp(graph)
    lines = [f"dsp: {'no' if tree is None else 'yes'}",
             f"lsp: {'yes' if verdict.is_lsp else 'no'}"]
    if dsp_witness is not None:
        lines.extend(_witness_lines(dsp_witness))
    if verdict.p1_witness is not None:
        lines.append("p1_witness: {} {}".format(*verdict.p1_witness))
    if verdict.p2_witness is not None:
        lines.append("p2_witness: {} {}".format(*verdict.p2_witness))
    sys.stdout.write("\n".join(lines) + "\n")
    if args.tree and tree is not None:
        sys.stdout.write(tree.dump())
    return EXIT_OK


def _load_solution_edges(path: str, graph: DirectedGraph) -> EdgeSet:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"solution {path}: JSON nested too deeply") from None
        except ValueError as err:  # JSON syntax or UTF-8 decoding
            raise ValueError(f"solution {path}: not valid JSON ({err})") from None
    pairs = data.get("edges") if isinstance(data, dict) else data
    # JSON integers only: int() would read 1.9, true and "0" as vertex ids
    if not (isinstance(pairs, list) and all(
            isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p)
            for p in pairs)):
        raise ValueError(f"solution {path}: expected a list of [u, v] integer vertex "
                         "pairs, alone or under the key \"edges\"")
    edges = [(u, v) for u, v in pairs]
    if len(set(edges)) != len(edges):
        raise ValueError(f"solution {path}: lists an edge more than once")
    return EdgeSet.from_pairs(graph, edges)


def _cmd_check(args) -> int:
    graph = _read_graph(args.input)
    alpha = RetentionRatio.parse(args.alpha)
    edge_set = _load_solution_edges(args.solution, graph)
    report = check_all_pairs(graph, edge_set, alpha)
    violation = report.first_violation
    payload = {
        "feasible": report.feasible,
        "first_violation": None if violation is None else asdict(violation),
        "worst_ratio": f"{report.worst_ratio.numerator}/{report.worst_ratio.denominator}",
        "alpha": str(alpha),
    }
    ok = report.feasible
    if args.against_oracle:
        optimum = oracle.brute_force_mcps(graph, alpha, args.oracle_budget).objective
        ok = ok and len(edge_set) == optimum
        payload.update(optimum=optimum, optimal=ok)
    _emit(payload)
    return EXIT_OK if ok else EXIT_INFEASIBLE


def _cmd_med(args) -> int:
    graph = _read_graph(args.input)
    sol = solver.solve_med(graph)
    _emit(sol.to_json_dict(graph))
    return EXIT_OK


def _cmd_stats(args) -> int:
    graph = _read_graph(args.input)
    max_cap = 0
    for s in range(graph.n):
        # lambda(s, t) <= min(outdeg(s), indeg(t)), so a pair whose bound
        # cannot beat max_cap is skipped without changing the maximum.
        if graph.out_degree(s) <= max_cap:
            continue
        for t in graph.reachable_from(s):
            if t != s and graph.in_degree(t) > max_cap:
                max_cap = max(max_cap, max_flow_value(graph, s, t))
    bound = None
    if graph.n >= 2:
        frac = Fraction(graph.m, graph.n - 1)
        bound = f"{frac.numerator}/{frac.denominator}"
    _emit({
        "n": graph.n,
        "m": graph.m,
        "acyclic": graph.is_acyclic(),
        "sources": graph.sources(),
        "sinks": graph.sinks(),
        "max_pair_capacity": max_cap,
        "feasible_to_optimal_bound": bound,
    })
    return EXIT_OK


def _parse_sets(text: str) -> tuple[frozenset[int], ...]:
    sets = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty set in --sets")
        sets.append(frozenset(ascii_int(x.strip()) for x in chunk.split(",")))
    return tuple(sets)


def _write_generated(args, graph: DirectedGraph, metadata: dict) -> None:
    meta_path = args.meta
    if meta_path is None and args.out:
        meta_path = args.out + ".json"
    if meta_path:  # before the edge list, so that a failed write leaves stdout empty
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(metadata, fh, indent=2)
            fh.write("\n")
    text = to_edge_list(graph)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    from . import generators  # only `gen` needs it, so other commands skip its import
    if args.generator == "setcover":
        sc = generators.SetCoverInstance(args.universe, _parse_sets(args.sets))
        art = generators.build_reduction(sc, p=args.p)
        metadata = {
            "kind": "setcover-reduction",
            "universe": sc.universe_size,
            "sets": [sorted(s) for s in sc.sets],
            "p": art.p,
            "alpha": str(art.alpha),
            "sink": art.sink,
            "item_vertex": {str(k): v for k, v in art.item_vertex.items()},
            "set_vertex": {str(k): v for k, v in art.set_vertex.items()},
            "vertex_roles": {str(k): v for k, v in sorted(art.vertex_roles.items())},
            "edge_roles": {str(k): v for k, v in sorted(art.edge_roles.items())},
            "labels": {str(k): v for k, v in sorted(art.graph.labels.items())},
        }
        _write_generated(args, art.graph, metadata)
    elif args.generator == "dsp":
        graph = generators.gen_random_dsp(args.seed, args.edges)
        _write_generated(args, graph, dict(graph.meta))
    elif args.generator == "lsp":
        try:
            lo, hi = (ascii_int(x.strip()) for x in args.block_edges.split(","))
        except ValueError:
            raise ValueError(f"--block-edges LO,HI: expected two integers, "
                             f"got {args.block_edges!r}") from None
        for flag, prob in (("--cyclic-prob", args.cyclic_prob),
                           ("--bipartite-prob", args.bipartite_prob)):
            if not 0 <= prob <= 1:
                raise ValueError(f"{flag}: expected a probability in [0, 1], got {prob}")
        graph = generators.gen_random_lsp(
            args.seed, blocks=args.blocks, block_edges=(lo, hi),
            cyclic_prob=args.cyclic_prob, bipartite_prob=args.bipartite_prob,
            check=not args.no_check)
        _write_generated(args, graph, dict(graph.meta))
    else:
        table = generators.fixtures()
        if args.name not in table:
            raise ValueError(
                f"unknown fixture {args.name!r}; available: {', '.join(sorted(table))}")
        graph = table[args.name]
        metadata = {"kind": "fixture", "name": args.name,
                    "labels": {str(k): v for k, v in sorted(graph.labels.items())}}
        _write_generated(args, graph, metadata)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors as one `error:` line on stderr, exit 2 (subparsers too)."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing reads the parser and never changes it
    parser = _Parser(
        prog="mcps",
        description="Minimum capacity-preserving subgraphs of directed unit-capacity graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute a minimum covering edge set")
    p_solve.add_argument("--input", required=True, help="edge-list file ('-' for stdin)")
    p_solve.add_argument("--alpha", required=True, help="retention ratio p/q")
    p_solve.add_argument("--mode", choices=["auto", "dsp", "lsp", "oracle"], default="auto")
    p_solve.add_argument("--dot", help="write DOT with the solution highlighted")
    p_solve.add_argument("--oracle-budget", type=ascii_int, default=oracle.DEFAULT_EDGE_BUDGET)
    p_solve.set_defaults(func=_cmd_solve)

    p_rec = sub.add_parser("recognize", help="classify the input graph")
    p_rec.add_argument("--input", required=True)
    p_rec.add_argument("--tree", action="store_true",
                       help="also dump the decomposition tree for DSPs")
    p_rec.set_defaults(func=_cmd_recognize)

    p_check = sub.add_parser("check", help="verify a solution file")
    p_check.add_argument("--input", required=True)
    p_check.add_argument("--solution", required=True, help="solution JSON file")
    p_check.add_argument("--alpha", required=True)
    p_check.add_argument("--against-oracle", action="store_true",
                         help="also compare against the brute-force optimum")
    p_check.add_argument("--oracle-budget", type=ascii_int, default=oracle.DEFAULT_EDGE_BUDGET)
    p_check.set_defaults(func=_cmd_check)

    p_med = sub.add_parser("med", help="minimum equivalent digraph (LSP inputs)")
    p_med.add_argument("--input", required=True)
    p_med.set_defaults(func=_cmd_med)

    p_stats = sub.add_parser("stats", help="basic facts about the input graph")
    p_stats.add_argument("--input", required=True)
    p_stats.set_defaults(func=_cmd_stats)

    p_gen = sub.add_parser("gen", help="generate instances")
    gen_sub = p_gen.add_subparsers(dest="generator", required=True)

    g_sc = gen_sub.add_parser("setcover", help="hardness-construction instance")
    g_sc.add_argument("--universe", type=ascii_int, required=True)
    g_sc.add_argument("--sets", required=True,
                      help="semicolon-separated sets of comma-separated item ids")
    g_sc.add_argument("--p", type=ascii_int, default=1)

    g_dsp = gen_sub.add_parser("dsp", help="random series-parallel digraph")
    g_dsp.add_argument("--seed", type=ascii_int, required=True)
    g_dsp.add_argument("--edges", type=ascii_int, required=True)

    g_lsp = gen_sub.add_parser("lsp", help="random laminar series-parallel graph")
    g_lsp.add_argument("--seed", type=ascii_int, required=True)
    g_lsp.add_argument("--blocks", type=ascii_int, default=4)
    g_lsp.add_argument("--block-edges", default="2,8", help="LO,HI block edge counts")
    g_lsp.add_argument("--cyclic-prob", type=float, default=0.25)
    g_lsp.add_argument("--bipartite-prob", type=float, default=0.2)
    g_lsp.add_argument("--no-check", action="store_true",
                       help="skip the recognizer assertion on the output")

    g_fix = gen_sub.add_parser("fixture", help="named fixture graph")
    g_fix.add_argument("name")

    for g in (g_sc, g_dsp, g_lsp, g_fix):
        g.add_argument("--out", help="write edge list here instead of stdout")
        g.add_argument("--meta", help="write metadata sidecar JSON here")
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else EXIT_USAGE
    try:
        if getattr(args, "oracle_budget", 0) < 0:
            raise ValueError(f"--oracle-budget must be nonnegative, got {args.oracle_budget}")
        return args.func(args)
    except NotDspError as err:
        print(f"precondition violation: {err}", file=sys.stderr)
        for line in _witness_lines(err.witness):
            print(line, file=sys.stderr)
        return EXIT_PRECONDITION
    except NotLspError as err:
        print(f"precondition violation: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BudgetExceededError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, McpsError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
