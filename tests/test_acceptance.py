"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  The
heavyweight sweeps (hundreds of graphs, exhaustive small-graph enumeration)
live here rather than in the per-module tests.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from netcontrol.edcp import CoverInfeasibleError, edcp, naive_placement
from netcontrol.elpgm import ElpgmConfig, elpgm_optimize, grad_b, grad_c
from netcontrol.flow import SufficiencySolver
from netcontrol.graph import DirectedGraph, generate_ba, generate_er, maximum_matching
from netcontrol.lti import (
    ControlPlacement,
    UncontrollableError,
    chain_control_cost,
    control_cost,
    control_cost_matrices,
    drive_to_origin,
    gramian,
    mat_exp,
    output_controllable,
)
from netcontrol.pathcover import (
    controllability_curve,
    extract_paths_cycles,
    max_controllable_subset,
    min_controllers_for,
)
from oracles import (
    all_digraphs_up_to_iso,
    best_cover_sizes,
    best_path_only_cover_size,
    brute_best_placement,
    extended_precision_grads,
    simpson_gramian,
)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def theorem_sweep():
    """200 seeded ER/BA graphs, solved for every M; shared by criteria 1-2."""
    rng = random.Random(20240)
    graphs = []
    for i in range(100):
        n = rng.randint(5, 50)
        graphs.append(generate_er(n, rng.uniform(0.5, 5.0), seed=1000 + i))
    for i in range(100):
        n = rng.randint(5, 50)
        graphs.append(generate_ba(n, rng.randint(1, min(4, n - 1)), seed=2000 + i))
    start = time.perf_counter()
    total = equality = disjoint = 0
    for g in graphs:
        solver = SufficiencySolver(g)
        for m in range(1, g.n + 1):
            coverage = solver.advance_to(m)
            flow = solver.as_flow()
            cover = extract_paths_cycles(g, flow)
            total += 1
            if cover.size == -flow.cost == coverage:
                equality += 1
            nodes = [v for p in cover.paths for v in p] + [v for c in cover.cycles for v in c]
            if len(nodes) == len(set(nodes)):
                disjoint += 1
    elapsed = time.perf_counter() - start
    return {"total": total, "equality": equality, "disjoint": disjoint, "elapsed": elapsed}


def test_criterion_01_theorem2_equality(theorem_sweep):
    s = theorem_sweep
    ok = s["equality"] == s["total"] and s["elapsed"] < 60
    report(1, ok, f"covered == -cost on {s['equality']}/{s['total']} instances "
                  f"across 200 graphs in {s['elapsed']:.1f}s (< 60s)")


def test_criterion_02_theorem3_disjointness(theorem_sweep):
    s = theorem_sweep
    report(2, s["disjoint"] == s["total"],
           f"zero repeated vertices in {s['disjoint']}/{s['total']} extractions")


def test_criterion_03_bruteforce_optimality():
    start = time.perf_counter()
    checked = failures = 0
    for n in range(1, 6):
        for edge_set in all_digraphs_up_to_iso(n):
            g = DirectedGraph(n, tuple((s, d, 1.0) for s, d in edge_set))
            solver = SufficiencySolver(g)
            best = best_cover_sizes(n, edge_set)
            for m in range(1, n + 1):
                checked += 1
                if solver.advance_to(m) != best[m]:
                    failures += 1
    rng = random.Random(606)
    for _ in range(100):
        edge_set = {(i, j) for i in range(6) for j in range(6) if rng.random() < 0.3}
        g = DirectedGraph(6, tuple((s, d, 1.0) for s, d in edge_set))
        solver = SufficiencySolver(g)
        best = best_cover_sizes(6, edge_set)
        for m in range(1, 7):
            checked += 1
            if solver.advance_to(m) != best[m]:
                failures += 1
    elapsed = time.perf_counter() - start
    report(3, failures == 0,
           f"all non-isomorphic digraphs n<=5 plus 100 random n=6: "
           f"{checked - failures}/{checked} exact ({elapsed:.1f}s)")


def test_criterion_04_full_control_consistency():
    rng = random.Random(99)
    failures = 0
    for trial in range(100):
        n = rng.randint(5, 200)
        if trial % 2 == 0:
            g = generate_er(n, rng.uniform(0.5, 6.0), seed=trial)
        else:
            g = generate_ba(n, rng.randint(1, min(4, n - 1)), seed=trial)
        mstar, _ = min_controllers_for(g, g.n)
        if mstar != max(g.n - maximum_matching(g), 1):
            failures += 1
    report(4, failures == 0, f"min controllers for full control matched "
                             f"max(n - matching, 1) on {100 - failures}/100 graphs")


def test_criterion_05_single_controller_and_er_vs_ba():
    start = time.perf_counter()
    g_er = generate_er(1000, 4, seed=0)
    solver_er = SufficiencySolver(g_er)
    rmax1 = solver_er.advance_to(1)
    frac_ok = rmax1 / 1000 >= 0.5
    g_ba = generate_ba(1000, 2, seed=0)  # matched density: ~2000 arcs each
    solver_ba = SufficiencySolver(g_ba)
    dominance = []
    for fraction in (0.6, 0.8, 1.0):
        target = int(fraction * 1000)
        m_er = solver_er.advance_until_coverage(target)
        m_ba = solver_ba.advance_until_coverage(target)
        dominance.append(m_er <= m_ba)
    elapsed = time.perf_counter() - start
    ok = frac_ok and all(dominance) and elapsed < 120
    report(5, ok, f"rmax(1)/n = {rmax1 / 1000:.3f} (>= 0.5); ER controllers <= BA "
                  f"at fractions 0.6/0.8/1.0: {dominance} ({elapsed:.1f}s < 120s)")


def test_criterion_06_above_neutral_diagonal():
    worst = 1.0
    for mu in (2, 3, 4):
        curve = controllability_curve(generate_er(1000, mu, seed=0))
        mstar = curve[-1].m
        for point in curve:
            worst = min(worst, (point.rmax / 1000) / (point.m / mstar))
    report(6, worst >= 1.0, f"controllable fraction dominates the neutral "
                            f"diagonal for mu in 2/3/4 (min ratio {worst:.3f})")


def test_criterion_07_string_cost_reference():
    reference = [0.5, 4, 51, 1.76e3, 1.11e5, 1.10e7, 1.57e9, 3.07e11, 7.84e13, 2.54e16]
    exact_one = chain_control_cost(1, 2.0) == 0.5
    worst_factor = 1.0
    for length, ref in enumerate(reference, start=1):
        ours = chain_control_cost(length, 2.0)
        worst_factor = max(worst_factor, ours / ref, ref / ours)
    growth_ok = all(
        chain_control_cost(length + 1, 2.0) / chain_control_cost(length, 2.0) >= 10
        for length in range(3, 10)
    )
    ok = exact_one and worst_factor <= 1.5 and growth_ok
    report(7, ok, f"length-1 cost 0.5 exactly; lengths 2-10 within factor "
                  f"{worst_factor:.3f} (<= 1.5) of the reference row; growth >= 10x for L >= 3")


def test_criterion_08_gramian_cross_check():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        a = rng.normal(size=(n, n)) * 0.5 - 0.3 * np.eye(n)
        b = rng.normal(size=(n, int(rng.integers(1, 4))))
        w = gramian(a, b, 2.0)
        w_ref = simpson_gramian(a, b, 2.0, panels=1024)
        worst = max(worst, np.abs(w - w_ref).max() / max(1e-300, np.abs(w_ref).max()))
    report(8, worst <= 1e-8, f"block-exponential vs Simpson quadrature on 50 "
                             f"random (A,B), n<=10: max rel diff {worst:.2e} (<= 1e-8)")


def _random_controllable_relaxations(count: int):
    """Dense perturbations of cover-seeded placements, n <= 6."""
    out = []
    seed = 0
    while len(out) < count and seed < 500:
        seed += 1
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        g = generate_er(n, 2.5, seed=seed)
        a = g.randomized_adjacency(seed)
        m = int(rng.integers(1, max(2, n // 2)))
        cover, _ = max_controllable_subset(g, m)
        b = np.zeros((n, m))
        for col, path in enumerate(cover.paths):
            b[path[0], col] = 1.0
        path_nodes = [v for p in cover.paths for v in p]
        r = min(len(path_nodes), int(rng.integers(1, n + 1)))
        c = np.zeros((r, n))
        for row, v in enumerate(path_nodes[:r]):
            c[row, v] = 1.0
        b = b + 0.2 * rng.normal(size=b.shape)
        c = c + 0.2 * rng.normal(size=c.shape)
        if not output_controllable(a, b, c):
            continue
        try:
            control_cost_matrices(a, b, c, 2.0)
        except UncontrollableError:
            continue
        out.append((a, b, c))
    return out


def test_criterion_09_gradient_checks():
    instances = _random_controllable_relaxations(20)
    assert len(instances) == 20
    worst = 0.0
    for a, b, c in instances:
        gb, gc = grad_b(a, b, c, 2.0), grad_c(a, b, c, 2.0)
        # float64 differences of E ~ 3.5e5 (instance 16) carry roundoff of
        # about 0.3 in dE/dC, so the reference is taken in extended precision
        fd_b, fd_c = extended_precision_grads(a, b, c, 2.0)
        worst = max(
            worst,
            np.abs(gb - fd_b).max() / max(1.0, np.abs(fd_b).max()),
            np.abs(gc - fd_c).max() / max(1.0, np.abs(fd_c).max()),
        )
    report(9, worst <= 1e-5, f"both gradients vs 40-digit central differences on 20 "
                             f"controllable instances: max rel err {worst:.2e} (<= 1e-5)")


def _algorithm_placements():
    """Controllable placements produced by the shipped algorithms, n <= 30.

    A refusal counts against the criterion unless the flow bound or the
    path-only oracle shows that no placement exists (the refusal contract
    of `edcp`).
    """
    jobs, wrong_refusals = [], []

    def placement_exists(g, m, r):
        # the flow bound first: the exhaustive path search is slow at n=30
        return max_controllable_subset(g, m)[1] >= r and best_path_only_cover_size(g.n, g.edge_set(), m) >= r

    def place_edcp(g, a, m, r, label):
        try:
            jobs.append((a, edcp(g, m, r, 2.0).placement))
        except (CoverInfeasibleError, UncontrollableError) as exc:
            if placement_exists(g, m, r):
                wrong_refusals.append(f"{label}: {exc}")

    for seed in range(4):
        g = generate_er(18, 2.5, seed=seed)
        place_edcp(g, g.randomized_adjacency(seed), 4, 14, f"edcp er-18 seed {seed}")
    g = generate_er(30, 3.0, seed=11)
    place_edcp(g, g.randomized_adjacency(11), 6, 24, "edcp er-30 seed 11")
    for seed in range(2):
        g = generate_er(8, 2.5, seed=40 + seed)
        a = g.randomized_adjacency(40 + seed)
        try:
            placement, _ = elpgm_optimize(a, 2, 5, ElpgmConfig(k_f=10, restarts=3, seed=seed))
            jobs.append((a, placement))
        except UncontrollableError as exc:
            if placement_exists(g, 2, 5):
                wrong_refusals.append(f"elpgm er-8 seed {40 + seed}: {exc}")
    return jobs, wrong_refusals


def test_criterion_10_driving_contract():
    jobs, wrong_refusals = _algorithm_placements()
    assert len(jobs) >= 6
    rng = np.random.default_rng(123)
    worst_resid = worst_energy = 0.0
    for a, placement in jobs:
        n = a.shape[0]
        x0 = rng.normal(size=n)
        _, residual, energy = drive_to_origin(a, placement, x0)
        c = placement.c_matrix(n)
        w = gramian(a, placement.b_matrix(n), placement.t_f)
        y = c @ mat_exp(a, placement.t_f) @ x0
        analytic = float(y @ np.linalg.solve(c @ w @ c.T, y))
        worst_resid = max(worst_resid, residual)
        worst_energy = max(worst_energy, abs(energy - analytic) / analytic)
    ok = worst_resid <= 1e-6 and worst_energy <= 1e-6 and not wrong_refusals
    report(10, ok, f"{len(jobs)} algorithm placements driven to the origin: "
                   f"max residual {worst_resid:.2e} (<= 1e-6), max energy "
                   f"mismatch {worst_energy:.2e} (<= 1e-6); "
                   f"refusals of feasible requests: {wrong_refusals or 'none'}")


FIG8 = "1 2\n2 3\n3 4\n4 5\n6 7\n7 8\n8 9\n9 10\n11 12\n12 13\n13 11\n1 3\n14\n"


def test_criterion_11_worked_example_golden():
    from netcontrol.graph import parse_edge_list

    g = parse_edge_list(FIG8)
    res = edcp(g, 4, 12, 2.0)
    ext = g.internal_to_external()
    got = {tuple(ext[v] for v in seg) for seg in res.segments}
    want = {(1, 2, 3), (4, 5), (6, 7, 8, 9), (11, 12, 13)}
    report(11, got == want, f"14-node example with M=4, R=12 returned exactly "
                            f"{sorted(want)}")


def _weakly_connected(n, edge_set):
    if n == 1:
        return True
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, d in edge_set:
        parent[find(s)] = find(d)
    return len({find(v) for v in range(n)}) == 1


def test_criterion_12_small_instance_near_optimality():
    start = time.perf_counter()
    graphs = [e for e in all_digraphs_up_to_iso(4) if _weakly_connected(4, e)]
    cfg_seed = 0
    cases = elpgm_bad = edcp_bad = refusals = 0
    worst_elpgm = worst_edcp = 0.0
    for edge_set in graphs:
        a = DirectedGraph(4, tuple((s, d, 1.0) for s, d in edge_set)).randomized_adjacency(7)
        # the heuristic is scored on `a`, so it gets the network `a` describes
        g = DirectedGraph(4, tuple((s, d, float(a[d, s])) for s, d in edge_set))
        for m in (1, 2):
            for r in range(m, 5):
                best = brute_best_placement(a, m, r)
                if best is None:
                    continue
                cases += 1
                cfg_seed += 1
                try:
                    _, e_best = elpgm_optimize(
                        a, m, r, ElpgmConfig(k_f=25, restarts=16, m1=3, seed=cfg_seed)
                    )
                    worst_elpgm = max(worst_elpgm, e_best / best[0])
                    if e_best > 1.10 * best[0]:
                        elpgm_bad += 1
                except UncontrollableError:
                    elpgm_bad += 1
                try:
                    res = edcp(g, m, r, 2.0)
                    e_exact = control_cost(a, res.placement)
                    worst_edcp = max(worst_edcp, e_exact / best[0])
                    if e_exact > 10 * best[0]:
                        edcp_bad += 1
                except CoverInfeasibleError:
                    # a refusal is legitimate only when no path-structured
                    # placement exists: the refusal contract in the docstring
                    # of netcontrol.edcp.edcp
                    refusals += 1
                    if best_path_only_cover_size(4, edge_set, m) >= r:
                        edcp_bad += 1
    elapsed = time.perf_counter() - start
    ok = elpgm_bad == 0 and edcp_bad == 0
    report(12, ok, f"{cases} feasible (graph, M, R) cases over {len(graphs)} "
                   f"connected 4-node digraphs: descent worst {worst_elpgm:.3f}x "
                   f"(<= 1.10), heuristic worst {worst_edcp:.2f}x (<= 10), "
                   f"{refusals} path-infeasible refusals, {elapsed:.0f}s")


def test_criterion_13_cost_table_substitute():
    failures = []
    for label, g in (("er", generate_er(100, 6, seed=0)), ("ba", generate_ba(100, 4, seed=3))):
        for fraction in (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
            r = max(1, math.ceil(fraction * g.n))
            res = edcp(g, 32, r, 2.0)
            base = naive_placement(g, 32, r, 2.0)
            base_cost = base.e_exact if base.e_exact is not None else base.e_estimate
            if res.e_exact is None or not res.e_exact < base_cost:
                failures.append((label, fraction, "beat"))
            if fraction == 1.0 and not (1e3 <= res.e_exact <= 1e6):
                failures.append((label, fraction, "bracket"))
    report(13, not failures, "ER n=100 |E|=300 and BA n=100 |E|=384 at M=32: even "
                             "division beat the stem-head baseline at every fraction; "
                             f"full-control costs inside [1e3, 1e6] {failures or ''}")


def test_criterion_14_scale_runtime():
    g = generate_er(1000, 4, seed=0)
    start = time.perf_counter()
    curve = controllability_curve(g)
    curve_s = time.perf_counter() - start
    mstar = curve[-1].m
    start = time.perf_counter()
    edcp(g, mstar, 1000, 2.0)
    edcp_s = time.perf_counter() - start
    ok = curve_s < 10 and edcp_s < 30
    report(14, ok, f"1000-node sweep: full curve {curve_s:.2f}s (< 10s), "
                   f"placement {edcp_s:.2f}s (< 30s)")
