"""Command-line front end: generate graphs, compute controllability curves,
place drivers, verify placements, and run benchmark grids.

Exit codes: 0 success; 1 usage or input error, a count, degree, seed,
fraction or horizon out of range and a malformed placement file (also one
naming a node twice) included; 2 refused request: sizes the graph cannot
host, no EDCP cover, or no output-controllable placement (a cost past the
float range included); 3 numeric failure (numpy LinAlgError).  The sizes
are the request's to refuse (`edcp._Request.check`, R > n or M > R), so
both algorithms and a `bench` cell refuse them in the same words.  A
`bench` cell without an exact cost reports the chain estimate and says
so on stderr.  `verify --format json` writes a condition number past the
float range as null.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from .edcp import CoverInfeasibleError, EdcpResult, _Request, edcp
from .elpgm import ElpgmConfig, _descend
from .graph import (
    DirectedGraph,
    GraphFormatError,
    generate_ba,
    generate_er,
    parse_edge_list,
    serialize_edge_list,
)
from .lti import ControlPlacement, UncontrollableError, _Context, _drive
from .pathcover import controllability_curve, curve_to_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERIC = 3

_BENCH_ALGOS = ("edcp", "naive", "elpgm")


class _Parser(argparse.ArgumentParser):
    """argparse's default usage-error exit code is 2; this tool uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load_graph(path: str) -> DirectedGraph:
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return DirectedGraph.from_json(text)
    return parse_edge_list(text)


def _format_cost(value: float) -> str:
    """Plain decimal below 1e4, compact scientific (2.35E04 style) above; nan and inf as such."""
    if not math.isfinite(value):
        return str(value)
    if abs(value) >= 1e4:
        mantissa, _, exponent = f"{value:.2E}".partition("E")
        return f"{mantissa}E{int(exponent):02d}"
    return f"{value:.6g}"


def cmd_gen(args) -> int:
    if args.model == "er":
        g = generate_er(args.n, args.mu, args.seed)
    else:
        g = generate_ba(args.n, args.m, args.seed)
    _write_out(serialize_edge_list(g), args.out)
    return EXIT_OK


def cmd_curve(args) -> int:
    g = _load_graph(args.graph)
    curve = controllability_curve(g)
    if args.format == "json":
        payload = [
            {"M": p.m, "rmax": p.rmax, "frac_controllable": p.frac_controllable,
             "frac_drivers_normalized": p.frac_drivers}
            for p in curve
        ]
        _write_out(json.dumps(payload, indent=2), args.out)
    else:
        _write_out(curve_to_csv(curve), args.out)
    return EXIT_OK


def _r_from_fraction(fraction: Fraction, n: int) -> int:
    return max(1, math.ceil(fraction * n))


def cmd_place(args) -> int:
    g = _load_graph(args.graph)
    r_size = args.r if args.fraction is None else _r_from_fraction(args.fraction, g.n)
    if args.algo == "edcp":
        result = edcp(g, args.m, r_size, args.tf)  # _Request(g, M, t_f).place(R); perfbench patches this name
    else:
        placement, e_best = _descend(_Request(g, args.m, args.tf), r_size, ElpgmConfig(seed=args.seed))
        result = EdcpResult(placement, segments=None, e_estimate=None, e_exact=e_best)
    _write_out(result.to_json(g), args.out)
    return EXIT_OK


def _node_ids(g: DirectedGraph, payload: dict, key: str) -> tuple[int, ...]:
    """The internal ids of a placement file's `key`: a non-empty list of g's external ids."""
    ids = payload[key]
    if not (isinstance(ids, list) and ids and all(type(v) is int for v in ids)):
        raise ValueError(f"{key} must be a non-empty list of integer node ids, got {ids!r}")
    return tuple(g.id_map[v] for v in ids)


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    try:
        payload = json.loads(Path(args.placement).read_text())
        placement = ControlPlacement(drivers=_node_ids(g, payload, "drivers"),
                                     controlled=_node_ids(g, payload, "controlled"), t_f=args.tf)
    except (KeyError, TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise GraphFormatError(f"bad placement file: {exc}") from exc
    report = {"controllable": True, "cost": None, "residual": None}
    try:
        s = _Context(g.realized_adjacency(), args.tf).placed(placement)  # serves both the cost and the drive
        report["cost"] = s.cost
        x0 = np.random.default_rng(args.seed).normal(size=g.n)
        _, residual, _ = _drive(s, x0)
        report["residual"] = residual
    except UncontrollableError as exc:
        report["controllable"] = False
        if exc.condition is not None:  # None: the rank test failed or the terms overflowed
            report["condition"] = exc.condition if math.isfinite(exc.condition) else None
    if args.format == "json":
        _write_out(json.dumps(report, indent=2), args.out)
    else:
        lines = [f"controllable: {str(report['controllable']).lower()}"]
        if report["cost"] is not None:
            lines.append(f"cost: {_format_cost(report['cost'])}")
            lines.append(f"residual: {report['residual']:.3e}")
        _write_out("\n".join(lines), args.out)
    return EXIT_OK if report["controllable"] else EXIT_INFEASIBLE


def cmd_bench(args) -> int:
    if args.network == "er":
        g = generate_er(args.n, args.mu, args.seed)
        label = f"er-n{args.n}-mu{args.mu:g}"
    else:
        g = generate_ba(args.n, args.m_attach, args.seed)
        label = f"ba-n{args.n}-m{args.m_attach}"
    rows = ["network,n,edges,fraction,M,algorithm,E,wall_time_s"]
    req = _Request(g, args.m, args.tf)  # one flow solve and one A for every cell
    for fraction in args.fractions:
        r_size = _r_from_fraction(fraction, g.n)
        for algo in args.algos:
            start = time.perf_counter()
            cell = f"{label} fraction {float(fraction):g} {algo}"
            try:
                cost = _bench_cost(req, algo, r_size, args, cell)
            except (CoverInfeasibleError, UncontrollableError) as exc:  # sizes too: `_Request.check`
                print(f"netcontrol: {cell}: {exc}", file=sys.stderr)
                cost = float("nan")
            elapsed = time.perf_counter() - start
            rows.append(
                f"{label},{g.n},{g.edge_count},{float(fraction):g},{args.m},{algo},"
                f"{_format_cost(float(cost))},{elapsed:.3f}"
            )
    _write_out("\n".join(rows) + "\n", args.out)
    return EXIT_OK


def _bench_cost(req: _Request, algo: str, r_size: int, args, cell: str) -> float:
    """The cost bench cell `cell` reports for `algo` at R = r_size."""
    if algo == "elpgm":
        return _descend(req, r_size, ElpgmConfig(seed=args.seed))[1]
    res = req.place(r_size, naive=algo == "naive")
    if res.e_exact is None:
        print(f"netcontrol: {cell}: E is the chain estimate, no exact cost", file=sys.stderr)
        return res.e_estimate
    return res.e_exact


def _bench_algos(text: str) -> list[str]:
    algos = text.split(",")
    for algo in algos:
        if algo not in _BENCH_ALGOS:
            raise argparse.ArgumentTypeError(
                f"unknown algorithm {algo!r} (choose from {', '.join(_BENCH_ALGOS)})"
            )
    return algos


def _checked(convert, ok, noun: str, rule: str):
    """An argparse type: convert(text), refused as a usage error unless ok."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{noun} {text!r} is not {rule}")
        return value

    return parse


# the decimal as written, so that R = ceil(0.07 * 100) is 7; float() first
# refuses "1/2" and reads an exponent too large to expand (1e-999999999) as 0
_fraction = _checked(lambda t: Fraction(t) if 0 < abs(float(t)) < math.inf else None,
                     lambda v: 0 < v <= 1, "fraction", "a number in (0, 1]")
_count = _checked(int, lambda v: v >= 1, "count", "an integer >= 1")
_seed = _checked(int, lambda v: v >= 0, "seed", "an integer >= 0")  # as numpy's SeedSequence
_degree = _checked(float, lambda v: 0 <= v < math.inf, "degree", "a finite number >= 0")
_horizon = _checked(float, lambda v: 0 < v < math.inf, "t_f", "a positive finite number")


def _bench_fractions(text: str) -> list[Fraction]:
    """Comma-separated controlled fractions, each as for `place --fraction`."""
    return [_fraction(item) for item in text.split(",")]


def build_parser() -> _Parser:
    parser = _Parser(prog="netcontrol", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="generate a random graph edge list")
    gen_sub = p_gen.add_subparsers(dest="model", required=True, parser_class=_Parser)
    p_er = gen_sub.add_parser("er", help="uniform random digraph with round(mu*n/2) edges")
    p_er.add_argument("--n", type=_count, required=True)
    p_er.add_argument("--mu", type=_degree, required=True, help="target mean total degree")
    p_er.add_argument("--seed", type=int, default=0)
    p_er.add_argument("--out", default=None)
    p_er.set_defaults(func=cmd_gen)
    p_ba = gen_sub.add_parser("ba", help="preferential-attachment digraph")
    p_ba.add_argument("--n", type=_count, required=True)
    p_ba.add_argument("--m", type=_count, required=True, help="attachments per new node")
    p_ba.add_argument("--seed", type=int, default=0)
    p_ba.add_argument("--out", default=None)
    p_ba.set_defaults(func=cmd_gen)

    p_curve = sub.add_parser("curve", help="controllers vs. controllable-node curve")
    p_curve.add_argument("graph")
    p_curve.add_argument("--format", choices=("csv", "json"), default="csv")
    p_curve.add_argument("--out", default=None)
    p_curve.set_defaults(func=cmd_curve)

    p_place = sub.add_parser("place", help="compute a driver/controlled placement")
    p_place.add_argument("graph")
    p_place.add_argument("--algo", choices=("edcp", "elpgm"), default="edcp")
    p_place.add_argument("-M", dest="m", type=_count, required=True, help="number of controllers")
    size = p_place.add_mutually_exclusive_group(required=True)
    size.add_argument("-R", dest="r", type=_count, help="controlled-node count")
    size.add_argument("--fraction", type=_fraction, help="controlled fraction of n, in (0, 1]")
    p_place.add_argument("--seed", type=_seed, default=0)
    p_place.add_argument("--tf", type=_horizon, default=2.0)
    p_place.add_argument("--out", default=None)
    p_place.set_defaults(func=cmd_place)

    p_verify = sub.add_parser("verify", help="check a placement and its steering residual")
    p_verify.add_argument("graph")
    p_verify.add_argument("placement", help="placement JSON file")
    p_verify.add_argument("--tf", type=_horizon, default=2.0)
    p_verify.add_argument("--seed", type=_seed, default=0)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="cost table over coverage fractions")
    p_bench.add_argument("--network", choices=("er", "ba"), required=True)
    p_bench.add_argument("--n", type=_count, default=100)
    p_bench.add_argument("--mu", type=_degree, default=6.0, help="ER mean total degree")
    p_bench.add_argument("--m-attach", type=_count, default=4, help="BA attachments per node")
    p_bench.add_argument("-M", dest="m", type=_count, required=True)
    p_bench.add_argument("--fractions", type=_bench_fractions, default="0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    p_bench.add_argument("--algos", type=_bench_algos, default="edcp,naive")
    p_bench.add_argument("--seed", type=_seed, default=0)
    p_bench.add_argument("--tf", type=_horizon, default=2.0)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (GraphFormatError, FileNotFoundError, OSError) as exc:
        print(f"netcontrol: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except np.linalg.LinAlgError as exc:  # a ValueError, so caught before the refusals
        print(f"netcontrol: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CoverInfeasibleError, UncontrollableError, ValueError) as exc:
        print(f"netcontrol: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
