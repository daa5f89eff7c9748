"""Independent brute-force oracles the tests check the fast paths against.

Everything here is deliberately naive: exhaustive enumeration, truncated
series, composite quadrature, finite differences.  None of it shares code
with the implementations it cross-checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, perm

import numpy as np

from netcontrol.lti import ControlPlacement, UncontrollableError, control_cost_matrices


def best_cover_sizes(n: int, edge_set: set[tuple[int, int]]) -> list[int]:
    """best[m] for m = 0..n: maximum nodes covered by exactly m vertex-disjoint
    paths plus any number of vertex-disjoint cycles, by one exhaustive search
    (n <= 6).  Each set of paths, taken in order of their heads, is visited
    once, and counts for its number of paths."""
    adj = [[] for _ in range(n)]
    for s, d in edge_set:
        adj[s].append(d)

    @lru_cache(maxsize=None)
    def cycle_max(avail: tuple[int, ...]) -> int:
        if not avail:
            return 0
        avail_set = set(avail)
        v = min(avail_set)
        best = cycle_max(tuple(sorted(avail_set - {v})))

        def dfs(cur: int, used: frozenset[int]):
            nonlocal best
            for w in adj[cur]:
                if w == v:
                    rest = tuple(sorted(avail_set - used))
                    best = max(best, len(used) + cycle_max(rest))
                elif w in avail_set and w not in used and w > v:
                    dfs(w, used | {w})

        dfs(v, frozenset({v}))
        return best

    best = [-1] * (n + 1)

    def paths(avail: frozenset[int], k: int, covered: int, min_head: int):
        best[k] = max(best[k], covered + cycle_max(tuple(sorted(avail))))
        for head in sorted(avail):
            if head < min_head:
                continue

            def extend(path: list[int]):
                paths(avail - set(path), k + 1, covered + len(path), head + 1)
                for w in adj[path[-1]]:
                    if w in avail and w not in path:
                        path.append(w)
                        extend(path)
                        path.pop()

            extend([head])

    paths(frozenset(range(n)), 0, 0, 0)
    return best


def best_path_only_cover_size(n: int, edge_set: set[tuple[int, int]], m: int) -> int:
    """Maximum nodes covered by exactly m vertex-disjoint paths, no cycles."""
    adj = [[] for _ in range(n)]
    for s, d in edge_set:
        adj[s].append(d)
    best = 0

    def paths(avail: frozenset[int], k: int, covered: int, min_head: int):
        nonlocal best
        if k == 0:
            best = max(best, covered)
            return
        if len(avail) < k:
            return
        for head in sorted(avail):
            if head < min_head:
                continue

            def extend(path: list[int]):
                paths(avail - set(path), k - 1, covered + len(path), head + 1)
                for w in adj[path[-1]]:
                    if w in avail and w not in path:
                        path.append(w)
                        extend(path)
                        path.pop()

            extend([head])

    paths(frozenset(range(n)), m, 0, 0)
    return best


def brute_maximum_matching(n: int, edges: list[tuple[int, int]]) -> int:
    """Max matching of the out/in bipartite split by branch and bound."""

    def go(idx: int, used_out: frozenset, used_in: frozenset) -> int:
        if idx == len(edges):
            return 0
        best = go(idx + 1, used_out, used_in)
        s, d = edges[idx]
        if s not in used_out and d not in used_in:
            best = max(best, 1 + go(idx + 1, used_out | {s}, used_in | {d}))
        return best

    return go(0, frozenset(), frozenset())


def taylor_expm(a: np.ndarray, terms: int = 60) -> np.ndarray:
    """Truncated power series for e^A."""
    n = a.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def simpson_gramian(a: np.ndarray, b: np.ndarray, t_f: float, panels: int = 4096) -> np.ndarray:
    """Composite-Simpson quadrature of the controllability Gramian."""
    from scipy.linalg import expm

    h = t_f / panels
    total = np.zeros((a.shape[0], a.shape[0]))
    for k in range(panels + 1):
        e = expm(a * (k * h))
        f = e @ b @ b.T @ e.T
        weight = 1 if k in (0, panels) else (4 if k % 2 else 2)
        total += weight * f
    return total * h / 3


def rk4_reference(a, b, u, x0, t_f: float, steps: int, return_trajectory: bool = False):
    """Classical four-stage RK4 on x' = Ax + Bu(t) over [0, t_f], exactly `steps` steps.

    Each step evaluates the stages k1..k4; u is called at the step's left
    end, midpoint and right end, the left value reused from the step before.
    Returns x(t_f), or (times, states) when return_trajectory is set.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    h = t_f / steps
    x = np.asarray(x0, dtype=float).reshape(a.shape[0]).copy()
    times = [0.0]
    states = [x.copy()]
    u_left = np.asarray(u(0.0), dtype=float)
    for k in range(steps):
        t = k * h
        u_mid = np.asarray(u(t + h / 2), dtype=float)
        u_right = np.asarray(u(t + h), dtype=float)
        k1 = a @ x + b @ u_left
        k2 = a @ (x + h / 2 * k1) + b @ u_mid
        k3 = a @ (x + h / 2 * k2) + b @ u_mid
        k4 = a @ (x + h * k3) + b @ u_right
        x = x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        u_left = u_right
        if return_trajectory:
            times.append((k + 1) * h)
            states.append(x.copy())
    if return_trajectory:
        return np.array(times), np.array(states)
    return x


def gauss_jordan_chain_cost(length: int, t_f: float) -> float:
    """Single-driver cost of a unit-weight directed chain, by assembling the
    exact rational Gramian W and e^(A t_f) e^(A^T t_f) and solving
    W Z = e^(A t_f) e^(A^T t_f) by Gauss-Jordan elimination over Fractions;
    the cost is tr(Z)."""
    tf = Fraction(t_f)
    fact = [Fraction(1)] * (length + 1)
    for i in range(1, length + 1):
        fact[i] = fact[i - 1] * i
    w = [
        [tf ** (i + j + 1) / ((i + j + 1) * fact[i] * fact[j]) for j in range(length)]
        for i in range(length)
    ]
    x = [
        [tf ** (i - j) / fact[i - j] if i >= j else Fraction(0) for j in range(length)]
        for i in range(length)
    ]
    y = [[sum(x[i][k] * x[j][k] for k in range(length)) for j in range(length)] for i in range(length)]
    aug = [row[:] + y[i][:] for i, row in enumerate(w)]
    for col in range(length):
        pivot = next(r for r in range(col, length) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(length):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    return float(sum(aug[i][length + i] for i in range(length)))


def hilbert_chain_cost(length: int, t_f: float) -> Fraction:
    """Single-driver cost of a unit-weight directed chain, exactly, as the
    sum over k of p_k^T H^-1 p_k / t_f^(2k+1) with p_k[i] = i! / (i - k)!
    and Choi's integer entries of the inverse Hilbert matrix,

        (H^-1)_ij = (-1)^(i+j) (i+j+1) C(L+i, L-j-1) C(L+j, L-i-1) C(i+j, i)^2.
    """
    n = length
    h_inv = [
        [(-1) ** (i + j) * (i + j + 1) * comb(n + i, n - j - 1) * comb(n + j, n - i - 1) * comb(i + j, i) ** 2
         for j in range(n)]
        for i in range(n)
    ]
    tf = Fraction(t_f)
    total = Fraction(0)
    for k in range(n):
        p = [perm(i, k) for i in range(n)]
        total += sum(pi * sum(h * pj for h, pj in zip(row, p)) for pi, row in zip(p, h_inv)) / tf ** (2 * k + 1)
    return total


def _mp_van_loan(x, q, t):
    """(Z11, Z12, Z22) of exp(t [[X, Q], [0, -X^T]]) for mpmath matrices X, Q.

    The 2n x 2n block is assembled entry by entry and exponentiated by
    mpmath at the caller's working precision.
    """
    import mpmath

    n = x.rows
    block = mpmath.zeros(2 * n, 2 * n)
    for i in range(n):
        for j in range(n):
            block[i, j] = x[i, j]
            block[i, n + j] = q[i, j]
            block[n + i, n + j] = -x[j, i]
    z = mpmath.expm(block * t)
    return z[:n, :n], z[:n, n:], z[n:, n:]


def van_loan_reference(x, q, t: float, dps: int = 40) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Z11, Z12, Z22) of exp(t [[X, Q], [0, -X^T]]) computed at `dps` digits, rounded to float64."""
    import mpmath

    with mpmath.workdps(dps):
        blocks = _mp_van_loan(mpmath.matrix(np.asarray(x, dtype=float).tolist()),
                              mpmath.matrix(np.asarray(q, dtype=float).tolist()), mpmath.mpf(t))
        return tuple(np.array(z.tolist(), dtype=float) for z in blocks)


def reference_steering(a, placement: ControlPlacement, dps: int = 40) -> tuple[np.ndarray, np.ndarray, float]:
    """(W, C W C^T, E) of a single-wire placement, computed at `dps` digits.

    W = Z12 Z11^T from the Van Loan blocks of (A, B B^T), C W C^T is W's
    controlled rows and columns, and E = tr((C W C^T)^-1 Y Y^T) with Y the
    controlled rows of Z11 = e^(A t_f).  W and C W C^T are rounded to
    float64 after the products; E is rounded last.
    """
    import mpmath

    n = np.shape(a)[0]
    rows = list(placement.controlled)
    with mpmath.workdps(dps):
        mp_a = mpmath.matrix(np.asarray(a, dtype=float).tolist())
        bbt = mpmath.zeros(n, n)
        for v in placement.drivers:
            bbt[v, v] = 1
        z11, z12, _ = _mp_van_loan(mp_a, bbt, mpmath.mpf(placement.t_f))
        w = z12 * z11.T
        g = mpmath.matrix([[w[i, j] for j in rows] for i in rows])
        y = mpmath.matrix([[z11[i, j] for j in range(n)] for i in rows])
        h = mpmath.inverse(g) * (y * y.T)
        cost = mpmath.fsum(h[k, k] for k in range(len(rows)))
        return np.array(w.tolist(), dtype=float), np.array(g.tolist(), dtype=float), float(cost)


def central_difference_grad_b(a, b, c, t_f, step=1e-5) -> np.ndarray:
    g = np.zeros_like(b)
    for i in range(b.shape[0]):
        for j in range(b.shape[1]):
            bp, bm = b.copy(), b.copy()
            bp[i, j] += step
            bm[i, j] -= step
            g[i, j] = (
                control_cost_matrices(a, bp, c, t_f) - control_cost_matrices(a, bm, c, t_f)
            ) / (2 * step)
    return g


def central_difference_grad_ct(a, b, c, t_f, step=1e-5) -> np.ndarray:
    g = np.zeros((c.shape[1], c.shape[0]))
    for i in range(c.shape[1]):
        for j in range(c.shape[0]):
            cp, cm = c.copy(), c.copy()
            cp[j, i] += step
            cm[j, i] -= step
            g[i, j] = (
                control_cost_matrices(a, b, cp, t_f) - control_cost_matrices(a, b, cm, t_f)
            ) / (2 * step)
    return g


def extended_precision_grads(a, b, c, t_f, dps=40, step=1e-12):
    """(dE/dB, dE/dC^T) by central differences of E evaluated in mpmath.

    E = tr((C W C^T)^-1 C X_f C^T) is computed here from scratch at `dps`
    digits: X_f = e^(A t_f) e^(A^T t_f), and W from the upper blocks of
    exp(t_f [[A, B B^T], [0, -A^T]]).  At 40 digits neither the roundoff
    (about 10^-40 E / step) nor the truncation error (about step^2) reaches
    the float64 range, so the result checks a float64 gradient to its own
    precision even where E is ill-conditioned.  e^(A t_f), X_f and W do not
    depend on C and are computed once for all C-perturbations.
    """
    import mpmath

    n, m = b.shape
    r = c.shape[0]
    with mpmath.workdps(dps):
        mp_a = mpmath.matrix(np.asarray(a, dtype=float).tolist())
        mp_b = mpmath.matrix(np.asarray(b, dtype=float).tolist())
        mp_c = mpmath.matrix(np.asarray(c, dtype=float).tolist())
        h = mpmath.mpf(step)
        e_tf = mpmath.expm(mp_a * t_f)
        xf = e_tf * e_tf.T

        def gram(bm):
            z11, z12, _ = _mp_van_loan(mp_a, bm * bm.T, t_f)
            return z12 * z11.T

        def cost(w, cm):
            g = cm * w * cm.T
            y = cm * xf * cm.T
            g_inv = mpmath.inverse(g)
            return mpmath.fsum(g_inv[i, j] * y[j, i] for i in range(r) for j in range(r))

        w0 = gram(mp_b)
        grad_b = np.zeros((n, m))
        for i in range(n):
            for j in range(m):
                bp, bm = mp_b.copy(), mp_b.copy()
                bp[i, j] += h
                bm[i, j] -= h
                grad_b[i, j] = float((cost(gram(bp), mp_c) - cost(gram(bm), mp_c)) / (2 * h))
        grad_ct = np.zeros((n, r))
        for i in range(n):
            for j in range(r):
                cp, cm = mp_c.copy(), mp_c.copy()
                cp[j, i] += h
                cm[j, i] -= h
                grad_ct[i, j] = float((cost(w0, cp) - cost(w0, cm)) / (2 * h))
    return grad_b, grad_ct


def brute_best_placement(a: np.ndarray, m: int, r: int, t_f: float = 2.0):
    """Cheapest output-controllable (drivers, controlled) pair, or None."""
    n = a.shape[0]
    best = None
    for drivers in itertools.combinations(range(n), m):
        for controlled in itertools.combinations(range(n), r):
            pl = ControlPlacement(drivers, controlled, t_f)
            try:  # refuses both rank and conditioning failures
                cost = control_cost_matrices(a, pl.b_matrix(n), pl.c_matrix(n), t_f)
            except UncontrollableError:
                continue
            if best is None or cost < best[0]:
                best = (cost, pl)
    return best


def sequential_draw_probabilities(weights, m0: int, m1: int) -> dict[tuple[int, ...], float]:
    """Exact probability of each ordered m0-node draw from a weighted pool.

    The pool is the m0 + m1 nodes of largest weight (ties to the lower
    index).  The sampler picks one remaining pool node at a time with
    probability proportional to its weight, uniformly when every remaining
    weight is 0; every ordered draw it can make is enumerated.
    """
    pool = sorted(range(len(weights)), key=lambda v: (-weights[v], v))[:m0 + m1]
    probs: dict[tuple[int, ...], float] = {}

    def pick(prefix: tuple[int, ...], p: float):
        if len(prefix) == m0:
            probs[prefix] = p
            return
        rest = [v for v in pool if v not in prefix]
        total = sum(weights[v] for v in rest)
        for v in rest:
            q = weights[v] / total if total > 0 else 1 / len(rest)
            if q > 0:
                pick(prefix + (v,), p * q)

    pick((), 1.0)
    return probs


def random_digraph(n: int, p: float, rng) -> set[tuple[int, int]]:
    """Uniform random arc set, self-loops allowed."""
    return {(i, j) for i in range(n) for j in range(n) if rng.random() < p}


def warshall_closure(a: np.ndarray) -> np.ndarray:
    """Boolean reach closure of A's nonzero pattern (A[i, j] != 0 is an edge
    j -> i) by Warshall's algorithm: row v marks the nodes v reaches, v
    included."""
    n = len(a)
    reach = [[v == w or a[w][v] != 0 for w in range(n)] for v in range(n)]
    for k in range(n):
        for v in range(n):
            if reach[v][k]:
                for w in range(n):
                    reach[v][w] = reach[v][w] or reach[k][w]
    return np.array(reach, dtype=bool).reshape(n, n)


def residual_has_negative_cycle(fn, flow) -> bool:
    """Bellman-Ford check on the residual network of a solved flow."""
    arcs = []
    for value, (tail, head, cap, cost) in zip(flow.values, fn.arcs):
        if value < cap:
            arcs.append((tail, head, cost))
        if value > 0:
            arcs.append((head, tail, -cost))
    num = fn.num_vertices
    dist = [0] * num  # zero init finds any negative cycle
    for _ in range(num):
        changed = False
        for tail, head, cost in arcs:
            if dist[tail] + cost < dist[head]:
                dist[head] = dist[tail] + cost
                changed = True
        if not changed:
            return False
    return True


def all_digraphs_up_to_iso(n: int) -> list[set[tuple[int, int]]]:
    """Representatives of all non-isomorphic digraphs on n nodes (loops
    excluded), by vectorized canonical-form deduplication.  A relabelling
    moves each arc bit on its own, so a code's image is the OR of the images
    of its 10-bit chunks, each read from a table of that chunk's values."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    pos = {pq: k for k, pq in enumerate(pairs)}
    codes = np.arange(1 << len(pairs), dtype=np.int64)
    chunks = [(lo, min(lo + 10, len(pairs))) for lo in range(0, len(pairs), 10)]
    values = [(codes >> lo) & ((1 << (hi - lo)) - 1) for lo, hi in chunks]
    canon = codes.copy()
    for perm in itertools.permutations(range(n)):
        image = np.array([1 << pos[(perm[i], perm[j])] for i, j in pairs], dtype=np.int64)
        mapped = np.zeros_like(codes)
        for (lo, hi), value in zip(chunks, values):
            chunk_bits = (np.arange(1 << (hi - lo))[:, None] >> np.arange(hi - lo)) & 1
            mapped |= (chunk_bits @ image[lo:hi])[value]
        np.minimum(canon, mapped, out=canon)
    reps = np.nonzero(canon == codes)[0]
    out = []
    for code in reps:
        out.append({pairs[k] for k in range(len(pairs)) if (int(code) >> k) & 1})
    return out
