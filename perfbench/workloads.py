"""The benchmark's workloads: seeded inputs, the requests of one pass, and
the check of every answer.

A request is a ``netcontrol.cli.main(argv)`` call or a public library call,
looked up on its module when it runs, so the traced pass sees its wrappers.
Nothing here imports netcontrol at module level: a pass times that import as
part of its set-up.

Each check returns one (label, status) pair per operation: ``"ok"``, or a
status starting with ``wrong`` (an answer that fails its check), ``refused``
(a refusal although the flow layer says the request is feasible) or
``error`` (an exception or an unexpected exit code).
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

RESIDUAL_LIMIT = 1e-6  # the steering contract of `netcontrol verify`

SIZES = {
    "full": {
        "sweep": {"er": (1500, 4.0), "ba": (1500, 2)},
        "table": {"bench_n": 100, "bench_m": 32, "place_n": 600, "place_mu": 4.0},
        "descent": {"n": 20, "mu": 3.0, "m": 3, "r": 10},
    },
    "tiny": {
        "sweep": {"er": (60, 4.0), "ba": (60, 2)},
        "table": {"bench_n": 24, "bench_m": 4, "place_n": 60, "place_mu": 4.0},
        "descent": {"n": 10, "mu": 3.0, "m": 2, "r": 5},
    },
}

# Every workload runs fixed graphs, because request times depend strongly on
# the instance; on `descent` the seed draws the initial state `verify` steers.
SWEEP_GRAPH_SEED = 0
BENCH_FRACTIONS = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
BENCH_GRAPHS = (("er", 0), ("ba", 3))  # the criterion-13 cost-table family
REFUSAL_SEEDS = (2, 3, 4)  # ER n=25 mu=2.5, M=4, R=18; rmax(4) is 17, 17 and 21
# ER n=600 mu=4 at M* and R=n: EDCP refuses today although M* drivers cover
# every node by definition.
PLACE_GRAPH_SEED = 0
DESCENT_GRAPH_SEED = 11

# Answers pinned per graph key: M*, rmax at the probe M = ceil(M*/2), and the
# curve checksum.  They are inputs too: a request at M* or at the probe takes
# its M from here, so no answer is computed before the requests run.
PINS = {
    "er-1500-4-0": {"mstar": 333, "rmax_probe": 1330, "checksum": "135c3634b558d479"},
    "ba-1500-2-0": {"mstar": 555, "rmax_probe": 1223, "checksum": "62876fe13bfa7717"},
    "er-600-4-0": {"mstar": 130},
    "er-60-4-0": {"mstar": 13, "rmax_probe": 53, "checksum": "b4dfb0a3f4b5f65e"},
    "ba-60-2-0": {"mstar": 27, "rmax_probe": 47, "checksum": "9d1b9e0c1ae3613c"},
}


def _nc(module: str):
    return importlib.import_module(f"netcontrol.{module}")


@dataclass
class Op:
    """One request: `call` is timed, `check` judges what it returned."""

    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], list[tuple[str, str]]]
    size: int = 1  # operations it counts for (a bench request also counts its cells)


def curve_checksum(rmax: list[int]) -> str:
    text = ";".join(f"{m},{r}" for m, r in enumerate(rmax, start=1))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _write_graph(g, path: Path) -> str:
    path.write_text(_nc("graph").serialize_edge_list(g))
    return str(path)


def _load_cli_graph(path: str):
    """The graph as `netcontrol` loads an edge-list file."""
    return _nc("graph").parse_edge_list(Path(path).read_text())


def realized_adjacency(g):
    """The CLI's rule: given weights when any edge has one, else seeded random weights."""
    graph = _nc("graph")
    weighted = any(w != 1.0 for _, _, w in g.edges)
    return g.adjacency() if weighted else g.randomized_adjacency(graph.DEFAULT_WEIGHT_SEED)


def full_control_drivers(g) -> int:
    """M* by the matching identity max(n - nu, 1) (acceptance criterion 04)."""
    return max(g.n - _nc("graph").maximum_matching(g), 1)


def cli(argv: list[str]) -> int:
    return _nc("cli").main(argv)


def _exit_status(label: str, code) -> str | None:
    return f"error: {label} exited {code}" if code != 0 else None


def refusal_status(g, m: int, r: int) -> str:
    """A refusal is correct only when the flow layer says rmax(M) < R."""
    rmax = _nc("pathcover").max_controllable_subset(g, m)[1] if m <= g.n else g.n
    if rmax < r:
        return "ok"
    return f"refused: rmax({m}) = {rmax} >= R = {r}"


def placement_status(graph_path: str, out_path: str, m: int, r: int) -> str:
    """M distinct drivers, R distinct controlled nodes, output controllable."""
    lti = _nc("lti")
    g = _load_cli_graph(graph_path)
    payload = json.loads(Path(out_path).read_text())
    inv = g.id_map
    try:
        drivers = [inv[int(v)] for v in payload["drivers"]]
        controlled = [inv[int(v)] for v in payload["controlled"]]
    except (KeyError, TypeError, ValueError) as exc:
        return f"wrong: unknown node in placement ({exc!r})"
    if len(drivers) != m or len(set(drivers)) != m:
        return f"wrong: {len(set(drivers))} distinct of {len(drivers)} drivers, want {m}"
    if len(controlled) != r or len(set(controlled)) != r:
        return f"wrong: {len(set(controlled))} distinct of {len(controlled)} controlled, want {r}"
    placement = lti.ControlPlacement(drivers=tuple(drivers), controlled=tuple(controlled))
    if not lti.output_controllable(realized_adjacency(g), placement.b_matrix(g.n), placement.c_matrix(g.n)):
        return "wrong: placement is not output controllable"
    return "ok"


def _place_op(kind: str, label: str, graph_path: str, out: Path, m: int, r: int,
              algo: str = "edcp", refusal_graph=None) -> Op:
    argv = ["place", graph_path, "--algo", algo, "-M", str(m), "-R", str(r), "--out", str(out)]

    def check(code):
        if code == 2 and refusal_graph is not None:
            return [(label, refusal_status(refusal_graph, m, r))]
        bad = _exit_status(label, code)
        return [(label, bad or placement_status(graph_path, str(out), m, r))]

    return Op(kind, label, lambda: cli(argv), check)


def cover_status(g, cover, paths: int, size: int) -> str:
    """A valid cover of g with `paths` control paths covering `size` nodes."""
    try:
        cover.validate(g)
    except ValueError as exc:
        return f"wrong: invalid cover ({exc})"
    if len(cover.paths) != paths:
        return f"wrong: {len(cover.paths)} control paths, want {paths}"
    if cover.size != size:
        return f"wrong: cover size {cover.size}, want {size}"
    return "ok"


# -- sweep: the flow layer ---------------------------------------------------
def sweep_setup(seed: int, workdir: Path, sizes: dict) -> dict:
    graph = _nc("graph")
    inputs = {}
    for model, (n, param) in sizes.items():
        g = (graph.generate_er(n, param, SWEEP_GRAPH_SEED) if model == "er"
             else graph.generate_ba(n, param, SWEEP_GRAPH_SEED))
        key = f"{model}-{n}-{param:g}-{SWEEP_GRAPH_SEED}"
        inputs[model] = {"g": g, "key": key, "path": _write_graph(g, workdir / f"{key}.txt"),
                         "workdir": workdir}
    return inputs


def sweep_ops(inputs: dict) -> list[Op]:
    ops = []
    for model, item in inputs.items():
        g, key = item["g"], item["key"]
        pin = PINS[key]
        probe = math.ceil(pin["mstar"] / 2)
        out = item["workdir"] / f"{key}.csv"
        seen: dict = {}

        def check_curve(code, label=f"curve {key}", out=out, g=g, pin=pin, seen=seen):
            bad = _exit_status(label, code)
            if bad:
                return [(label, bad)]
            with open(out) as fh:
                rows = list(csv.DictReader(fh))
            ms = [int(row["M"]) for row in rows]
            rmax = [int(row["rmax"]) for row in rows]
            seen["rmax"] = rmax
            gains = [b - a for a, b in zip(rmax, rmax[1:])]
            if ms != list(range(1, len(rows) + 1)) or not rmax:
                return [(label, "wrong: M column is not 1..M*")]
            if any(b > a for a, b in zip(gains, gains[1:])) or min(gains, default=0) < 0:
                return [(label, "wrong: marginal coverage gains increase or go negative")]
            mstar = full_control_drivers(g)
            if rmax[-1] != g.n or len(rmax) != mstar:
                return [(label, f"wrong: curve ends at ({len(rmax)}, {rmax[-1]}), "
                                f"want ({mstar}, {g.n}) by n - matching")]
            if curve_checksum(rmax) != pin["checksum"]:
                return [(label, f"wrong: curve checksum {curve_checksum(rmax)} != pinned {pin['checksum']}")]
            return [(label, "ok")]

        def check_mstar(result, label=f"mstar {key}", g=g, pin=pin):
            got, cover = result
            mstar = full_control_drivers(g)
            if got != mstar:
                return [(label, f"wrong: M* = {got}, but n - matching gives {mstar}")]
            if got != pin["mstar"]:
                return [(label, f"wrong: M* = {got} != pinned {pin['mstar']}")]
            return [(label, cover_status(g, cover, got, g.n))]

        def check_subset(result, label=f"subset {key}", g=g, probe=probe, pin=pin, seen=seen):
            cover, rmax = result
            if rmax != pin["rmax_probe"]:
                return [(label, f"wrong: rmax({probe}) = {rmax} != pinned {pin['rmax_probe']}")]
            if "rmax" in seen and probe <= len(seen["rmax"]) and rmax != seen["rmax"][probe - 1]:
                return [(label, f"wrong: rmax({probe}) = {rmax}, the curve says {seen['rmax'][probe - 1]}")]
            return [(label, cover_status(g, cover, probe, rmax))]

        argv = ["curve", item["path"], "--out", str(out)]
        ops += [
            Op("curve", f"curve {key}", lambda argv=argv: cli(argv), check_curve),
            Op("mstar", f"mstar {key}",
               lambda g=g: _nc("pathcover").min_controllers_for(g, g.n), check_mstar),
            Op("subset", f"subset {key}",
               lambda g=g, probe=probe: _nc("pathcover").max_controllable_subset(g, probe), check_subset),
        ]
    return ops


# -- table: the EDCP stages and exact chain costs ------------------------------
def table_setup(seed: int, workdir: Path, sizes: dict) -> dict:
    graph = _nc("graph")
    g = graph.generate_er(sizes["place_n"], sizes["place_mu"], PLACE_GRAPH_SEED)
    key = f"er-{g.n}-{sizes['place_mu']:g}-{PLACE_GRAPH_SEED}"
    refusals = {}
    for s in REFUSAL_SEEDS:
        small = graph.generate_er(25, 2.5, s)
        refusals[s] = (small, _write_graph(small, workdir / f"er-25-2.5-{s}.txt"))
    return {"large": (g, key, _write_graph(g, workdir / f"{key}.txt")), "refusals": refusals,
            "sizes": sizes, "workdir": workdir}


def _bench_op(model: str, gseed: int, sizes: dict, workdir: Path) -> Op:
    n, m = sizes["bench_n"], sizes["bench_m"]
    out = workdir / f"bench-{model}-{gseed}.csv"
    shape = ["--mu", "6"] if model == "er" else ["--m-attach", "4"]
    argv = ["bench", "--network", model, "--n", str(n), *shape, "-M", str(m), "--seed", str(gseed),
            "--fractions", ",".join(f"{f:g}" for f in BENCH_FRACTIONS), "--algos", "edcp,naive",
            "--out", str(out)]
    label = f"bench {model} n={n} seed={gseed}"
    cells = len(BENCH_FRACTIONS) * 2

    def check(code):
        bad = _exit_status(label, code)
        if bad:
            return [(label, bad)] * (1 + cells)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        statuses = [(label, "ok" if len(rows) == cells else f"wrong: {len(rows)} cells, want {cells}")]
        graph = _nc("graph")
        g = graph.generate_er(n, 6, gseed) if model == "er" else graph.generate_ba(n, 4, gseed)
        for row in rows[:cells]:
            cell = f"{label} {row['algorithm']} f={row['fraction']}"
            cost = float(row["E"])
            if math.isnan(cost):
                r = max(1, math.ceil(float(row["fraction"]) * n))
                statuses.append((cell, refusal_status(g, m, r)))
            else:
                statuses.append((cell, "ok" if math.isfinite(cost) and cost > 0 else f"wrong: E = {cost}"))
        statuses += [(label, "wrong: missing cell")] * (1 + cells - len(statuses))
        return statuses

    return Op("bench", label, lambda: cli(argv), check, size=1 + cells)


def table_ops(inputs: dict) -> list[Op]:
    sizes, workdir = inputs["sizes"], inputs["workdir"]
    ops = [_bench_op(model, gseed, sizes, workdir) for model, gseed in BENCH_GRAPHS]
    g, key, path = inputs["large"]
    mstar = PINS[key]["mstar"]
    large = _place_op("place_edcp", f"place edcp {key} M*={mstar} R={g.n}", path,
                      workdir / "place-large.json", mstar, g.n, refusal_graph=g)

    def check_large(code, check=large.check):
        matched = full_control_drivers(g)
        if matched != mstar:
            return [(large.label, f"wrong: n - matching gives {matched}, but M* is pinned at {mstar}")]
        return check(code)

    large.check = check_large
    ops.append(large)
    for s, (small, path) in inputs["refusals"].items():
        ops.append(_place_op("place_edcp", f"place edcp er-25-2.5-{s} M=4 R=18", path,
                             workdir / f"place-small-{s}.json", 4, 18, refusal_graph=small))
    return ops


# -- descent: ELPGM and the LTI kernels ----------------------------------------
def descent_setup(seed: int, workdir: Path, sizes: dict) -> dict:
    g = _nc("graph").generate_er(sizes["n"], sizes["mu"], DESCENT_GRAPH_SEED)
    return {"path": _write_graph(g, workdir / f"er-{g.n}-{sizes['mu']:g}-{DESCENT_GRAPH_SEED}.txt"),
            "seed": seed, "sizes": sizes, "workdir": workdir}


def descent_ops(inputs: dict) -> list[Op]:
    sizes, workdir, path = inputs["sizes"], inputs["workdir"], inputs["path"]
    m, r = sizes["m"], sizes["r"]
    ops = []
    for algo in ("edcp", "elpgm"):
        ops.append(_place_op(f"place_{algo}", f"place {algo} M={m} R={r}", path,
                             workdir / f"place-{algo}.json", m, r, algo=algo))
    for algo in ("edcp", "elpgm"):
        out = workdir / f"verify-{algo}.json"
        argv = ["verify", path, str(workdir / f"place-{algo}.json"), "--seed", str(inputs["seed"]),
                "--format", "json", "--out", str(out)]

        def check(code, label=f"verify {algo}", out=out):
            bad = _exit_status(label, code)
            if bad:
                return [(label, bad)]
            report = json.loads(out.read_text())
            if not report["controllable"]:
                return [(label, "wrong: verify reports the placement uncontrollable")]
            if not report["residual"] <= RESIDUAL_LIMIT:
                return [(label, f"wrong: residual {report['residual']:.3e} > {RESIDUAL_LIMIT:g}")]
            return [(label, "ok")]

        ops.append(Op("verify", f"verify {algo}", lambda argv=argv: cli(argv), check))
    return ops


WORKLOADS = {
    "sweep": (sweep_setup, sweep_ops),
    "table": (table_setup, table_ops),
    "descent": (descent_setup, descent_ops),
}
