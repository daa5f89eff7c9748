"""Joint projected gradient descent over the driver and output selections.

Both B and C^T are relaxed to dense matrices, moved along the analytic
gradient of the steering cost, and projected back onto the placement
manifold (one unit wire per column, fixed column count).  The projection
scores each node by the row mass it carried, keeps the top m0 + m1 as
candidates, and samples m0 of them without replacement proportionally to
that score, so the search can hop between supports while still descending.
The sampling is an exponential race: each candidate draws one exponential
key scaled by its score and the m0 smallest keys win, in order, so a whole
support comes from one vectorised call.  Each iterate reads 20 rows of
uniforms for B's retries, then 20 for C's, one row per retry, and a
restart draws all its iterates' rows in one call.  An iterate that no
retry moves keeps its support, and so its pools and weights: the descent
therefore races and reach-filters a window of iterates in one array pass,
one iterate at first and after an acceptance, twice as many after a window that
accepts nothing, and only the rows that pass the reach test are looked up,
in row order, up to the first accepted one.  Supports are keyed by node
index, and B and C are built only for a support not evaluated before.

The descent runs on an EDCP request (`edcp._Request`), built by
`elpgm_optimize` on `DirectedGraph.from_adjacency(A)` or shared by the CLI
among its algorithms: its flow solve's m-path cover seeds the starts, and
the EDCP start is the placement it keeps (on a `bench` grid, the EDCP
cell's).  `_Problem` adds the reach closure, the support cache and the best
placement, recorded as each new support is evaluated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .edcp import CoverInfeasibleError, _Request
from .graph import DirectedGraph
from .lti import ControlPlacement, UncontrollableError, _as_matrix, _Steering, _check_horizon, _van_loan

_PROJECTION_RETRIES = 20
_INIT_ATTEMPTS = 20


@dataclass(frozen=True)
class ElpgmConfig:
    """Step sizes, iteration budget and restart policy.

    m1 is the candidate margin of the projection (None picks
    max(1, ceil(m0/2)) per projection, clamped to the node count).
    """

    eta_b: float = 0.01
    eta_c: float = 0.01
    k_f: int = 100
    m1: int | None = None
    restarts: int = 10
    seed: int = 0
    t_f: float = 2.0

    def __post_init__(self):
        if not (0 < self.eta_b < math.inf and 0 < self.eta_c < math.inf):  # NaN fails both
            raise ValueError(f"learning rates must be positive and finite, got {self.eta_b}, {self.eta_c}")
        if self.k_f < 1 or self.restarts < 1:
            raise ValueError("k_f and restarts must be >= 1")
        if self.m1 is not None and self.m1 < 1:
            raise ValueError("m1 must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        _check_horizon(self.t_f)

    def margin_for(self, m0: int, n: int) -> int:
        m1 = self.m1 if self.m1 is not None else max(1, math.ceil(m0 / 2))
        return max(0, min(m1, n - m0))


def importance(h: np.ndarray) -> np.ndarray:
    """Per-node importance: row sums of |H|."""
    return np.abs(np.asarray(h, dtype=float)).sum(axis=1)


def project(h: np.ndarray, m0: int, m1: int, rng: np.random.Generator) -> np.ndarray:
    """Project H onto the m0-wire placement manifold by weighted sampling.

    The m0 + m1 nodes with the largest importance (ties to the lower index)
    form the candidate pool; m0 of them are drawn without replacement with
    probability proportional to importance, renormalized after each pick.
    An all-zero pool draws uniformly.  Output column j carries the j-th
    selected node.  The draw is an exponential race (`_draw`) on
    rng.random(m0 + m1).
    """
    pool, w = _pool(h, m0, m1)
    with np.errstate(divide="ignore"):  # u = 0 and w = 0 give infinite keys
        selected = _draw(pool, w, m0, -np.log(rng.random(len(pool))))
    out = np.zeros((np.shape(h)[0], m0))
    out[selected, np.arange(m0)] = 1.0
    return out


def _pool(h: np.ndarray, m0: int, m1: int) -> tuple[np.ndarray, np.ndarray]:
    """The candidate pool of `project`, in importance order, and its weights."""
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    if not (1 <= m0 <= n):
        raise ValueError(f"m0 must be in [1, {n}]")
    if m1 < 0 or m0 + m1 > n:
        raise ValueError("need 0 <= m1 and m0 + m1 <= n")
    r = importance(h)
    pool = np.lexsort((np.arange(n), -r))[:m0 + m1]
    return pool, r[pool]


def _draw(pool: np.ndarray, w: np.ndarray, m0: int, e: np.ndarray) -> np.ndarray:
    """m0 nodes of a `_pool` drawn without replacement, in draw order, per row of e.

    e holds standard exponentials of shape (..., len(pool)), e = -log(u) of
    one uniform u per pool node, in pool order.  Each candidate with
    importance w gets the key e / w; the m0 smallest keys, in ascending
    order, are a weighted draw without replacement (Efraimidis and Spirakis,
    Inf. Process. Lett. 97(5), 2006).  Zero weights get infinite keys (the
    caller silences numpy's divide warning) and rank by e among themselves,
    so once the positive weights are drawn the rest is uniform.  Every row
    is drawn on its own, so rows stacked into one call draw what they would
    draw one call each.  Rows are sorted on their keys alone, and only a row
    whose m0 + 1 smallest keys hold a tie is sorted again on (keys, e); the
    others' first m0 places are the same either way.
    """
    keys = e / w
    order = np.argsort(keys, axis=-1)[..., :m0 + 1]
    head = np.take_along_axis(keys, order, axis=-1)
    tied = (head[..., 1:] == head[..., :-1]).any(axis=-1)
    if tied.any():
        order[tied] = np.lexsort((e[tied], keys[tied]))[..., :m0 + 1]
    return pool[order[..., :m0]]


def grad_b(a: np.ndarray, b: np.ndarray, c: np.ndarray, t_f: float) -> np.ndarray:
    """Gradient of the steering cost with respect to B.

    The integral -2 int_0^tf e^(A^T t) P X_f P e^(A t) B dt (P = C^T G^-1 C,
    X_f = e^(A tf) e^(A^T tf), G = C W C^T) is evaluated exactly through the
    block exponential of [[-A^T, Q], [0, A]].  Raises UncontrollableError
    where `_Steering` refuses (A, B, C) or X_f is past the float range.
    """
    return _grad_b(_Steering(a, b, c, t_f))


def _grad_b(s: _Steering) -> np.ndarray:
    p = s.c.T @ s.ginv_c
    q = p @ s.x_f @ p
    return -2.0 * _exp_weighted_integral(s.a, q, s.t_f) @ s.b


def _exp_weighted_integral(a: np.ndarray, q: np.ndarray, t_f: float) -> np.ndarray:
    """int_0^tf e^(A^T t) Q e^(A t) dt via one Van Loan block exponential.

    With Z = exp(t_f [[-A^T, Q], [0, A]]) (`_van_loan` with X = -A^T), the
    integral is Z22^T Z12.  Q is scaled to unit size first and the result
    scaled back, which is exact because the integral is linear in Q.
    Scaling-and-squaring is accurate only relative to the block's norm, so
    an unscaled Q of size 1e11 (an ill-conditioned C W C^T) would swamp
    the A blocks and lose about six digits once the result multiplies B.
    """
    n = a.shape[0]
    scale = float(np.abs(q).max())
    if scale == 0.0:
        return np.zeros((n, n))
    _, z12, z22 = _van_loan(-a.T, q / scale, t_f)
    return scale * (z22.T @ z12)


def grad_c(a: np.ndarray, b: np.ndarray, c: np.ndarray, t_f: float) -> np.ndarray:
    """Gradient of the steering cost with respect to C^T (closed form).

    The gradient is 2 (I - W C^T G^-1 C) X_f C^T G^-1.  The projector's
    range lies in null(C), so it is applied as N N^T (I - W C^T G^-1 C) with
    N an orthonormal basis of null(C).  Expanding the product instead
    cancels two terms of the size of E; this form never forms them, and for
    square invertible C (where E = tr(W^-1 X_f) does not depend on C) it
    returns exactly 0.  Raises UncontrollableError where `_Steering` refuses
    (A, B, C) or, unless C is square and invertible, X_f is past the float range.
    """
    return _grad_c(_Steering(a, b, c, t_f))


def _grad_c(s: _Steering) -> np.ndarray:
    c = s.c
    _, sigma, vt = np.linalg.svd(c)  # null(C): singular values below max(R, n) eps s_0
    null = vt[np.sum(sigma > sigma.max(initial=0.0) * max(c.shape) * np.finfo(float).eps):].T
    if null.shape[1] == 0:
        return np.zeros((c.shape[1], c.shape[0]))
    ct_ginv = s.ginv_c.T  # C^T G^-1, exploiting G symmetry
    projected = null.T - (null.T @ s.w @ ct_ginv) @ c  # N^T (I - W C^T G^-1 C)
    return 2.0 * null @ (projected @ s.x_f @ ct_ginv)


class _Problem:
    """One descent's problem, the request req at r_size, and what the descent learns of it.

    Its graph, successor lists, m, t_f, A and the one flow solve's rmax(m)
    and m-path cover are read from req.  Starts are seeded from that cover:
    the canonical start puts drivers on the path heads and controls path
    nodes first (head to tail), then cycle nodes; randomized starts redraw
    the controlled set over the covered nodes and eventually anything, so
    independent restarts explore genuinely different supports.
    Controlled nodes are always drawn from the nodes the drafted drivers
    reach (a node no driver reaches cannot be steered), and candidates
    whose support does not evaluate are skipped.  What reaches what is read
    from closure, the graph's boolean n x n reach closure, computed once.

    A placement's cost and raw gradient steps depend only on its support
    (column order permutes away), so each support, keyed by its sorted
    driver and controlled nodes, is evaluated once, to (E, B's pool, C's
    pool): the projection's candidates and weights (`_pool`) on
    B - eta_b dE/dB and C^T - eta_c dE/dC^T, None for a frozen variable.
    A support that `_Steering` refuses (not output controllable, terms past
    the float range, or failing the conditioning test) evaluates to None.
    One whose E is finite but whose X_f is past the float range keeps E
    with no pools, so the descent does not step from it.  One with a
    controlled node that no driver reaches is never looked up, and has no
    entry: the starts draw only reached nodes, EDCP's start lies on paths
    from its drivers, and the descent drops such rows of its draws
    unlooked-up.  best is the first cheapest support evaluated, as first
    drawn.
    """

    def __init__(self, req: _Request, r_size: int, cfg: ElpgmConfig, update_b: bool, update_c: bool):
        n, m = req.g.n, req.m
        self.req, self.r_size, self.eta_b, self.eta_c = req, r_size, cfg.eta_b, cfg.eta_c
        self.m1_b = cfg.margin_for(m, n) if update_b else None  # None: the variable is frozen
        self.m1_c = cfg.margin_for(r_size, n) if update_c else None
        self.closure = self._reach_closure()
        self.entries: dict[tuple, tuple[float, tuple | None, tuple | None] | None] = {}
        self.best, self.best_e = None, math.inf  # (drivers, controlled) and its cost
        rmax, _, cover = self.req.covers
        if rmax < r_size:
            raise UncontrollableError(
                f"{m} drivers cover at most {rmax} nodes; no {r_size}-output start exists"
            )
        self.head_drivers = [p[0] for p in cover.paths]
        ordered = [v for p in cover.paths for v in p] + [v for c in cover.cycles for v in c]
        reached = self.reached(self.head_drivers)
        self.ordered = [v for v in ordered if reached[v]]
        # On small instances sweep the driver supports round-robin instead of
        # hoping random draws cover them.
        self.driver_combos = (
            list(itertools.combinations(range(n), m)) if math.comb(n, m) <= 64 else None
        )
        self._combo_cursor = 0
        # the supports that can have an entry: per driver set, the r-sets of what it reaches
        self.supports = math.inf if self.driver_combos is None else sum(
            math.comb(int(self.reached(combo).sum()), r_size) for combo in self.driver_combos)

    def _reach_closure(self) -> np.ndarray:
        """Boolean n x n matrix whose row v marks the nodes v reaches, v included.

        Squares the 0/1 matrix of I + adjacency until it is stable; a product
        entry counts at most n terms, which float64 holds exactly.
        """
        n = self.req.g.n
        closure = np.eye(n, dtype=bool)
        for v, ws in enumerate(self.req.succ):
            closure[v, ws] = True
        while True:
            wider = (closure.astype(float) @ closure) > 0
            if np.array_equal(wider, closure):
                return closure
            closure = wider

    def reached(self, drivers) -> np.ndarray:
        """Boolean mask of the nodes the drivers reach."""
        return self.closure[np.asarray(drivers, dtype=int)].any(axis=0)

    def reaches(self, drivers: np.ndarray, controlled: np.ndarray) -> np.ndarray:
        """Whether the drivers reach every controlled node, per row of (k, m) and (k, r) arrays."""
        reached = self.closure[drivers].any(axis=1)
        return reached[np.arange(len(reached))[:, None], controlled].all(axis=1)

    def support(self, drivers: list[int], controlled: list[int]):
        """The entry of a support whose drivers reach its controlled nodes, evaluated on first sight."""
        key = (tuple(sorted(drivers)), tuple(sorted(controlled)))
        if key not in self.entries:
            entry = self.entries[key] = self._evaluate(drivers, controlled)
            if entry is not None and entry[0] < self.best_e:
                self.best, self.best_e = (drivers, controlled), entry[0]
        return self.entries[key]

    def _evaluate(self, drivers: list[int], controlled: list[int]):
        try:
            s = _Steering.placed(self.req.a, ControlPlacement(drivers, controlled, self.req.t_f))
        except UncontrollableError:
            return None
        try:
            pool_b = None if self.m1_b is None else _pool(s.b - self.eta_b * _grad_b(s), self.req.m, self.m1_b)
            pool_c = None if self.m1_c is None else _pool(s.c.T - self.eta_c * _grad_c(s), self.r_size, self.m1_c)
        except UncontrollableError:  # X_f is past the float range: E stands, the gradients do not
            return s.cost, None, None
        return s.cost, pool_b, pool_c

    def _fresh_drivers(self, rng: np.random.Generator) -> list[int]:
        if self.driver_combos is not None:
            combo = self.driver_combos[self._combo_cursor % len(self.driver_combos)]
            self._combo_cursor += 1
            return list(combo)
        return list(rng.choice(self.req.g.n, size=self.req.m, replace=False))

    def _candidate(self, attempt: int, kind: int, rng: np.random.Generator):
        """(drivers, controlled), or None when the drivers reach too few nodes."""
        r_size = self.r_size
        if kind <= 1 and attempt < _INIT_ATTEMPTS // 2:
            if len(self.ordered) < r_size:
                return None
            if kind == 0 and attempt == 0:
                return self.head_drivers, self.ordered[:r_size]
            return self.head_drivers, list(rng.choice(self.ordered, size=r_size, replace=False))
        drivers = self._fresh_drivers(rng)
        reached = np.flatnonzero(self.reached(drivers))
        if len(reached) < r_size:
            return None
        return drivers, list(rng.choice(reached, size=r_size, replace=False))

    def draw(self, rng: np.random.Generator, kind: int) -> tuple[list[int], list[int]]:
        """The first candidate (drivers, controlled) whose support evaluates.

        kind 0: canonical start; 1: covered-set redraw; 2: fully random.
        """
        for attempt in range(_INIT_ATTEMPTS):
            candidate = self._candidate(attempt, kind, rng)
            if candidate is None:
                continue
            drivers, controlled = [int(v) for v in candidate[0]], [int(v) for v in candidate[1]]
            if self.support(drivers, controlled) is not None:
                return drivers, controlled
        raise UncontrollableError("no controllable initialization found")

    def edcp_start(self) -> tuple[list[int], list[int]] | None:
        """EDCP's placement kept by the request, when it has one; its paths start at their drivers."""
        try:
            placement = self.req.place(self.r_size).placement
        except CoverInfeasibleError:
            return None
        drivers, controlled = list(placement.drivers), list(placement.controlled)
        return (drivers, controlled) if self.support(drivers, controlled) is not None else None


def elpgm_optimize(
    a: np.ndarray,
    m: int,
    r_size: int,
    cfg: ElpgmConfig | None = None,
    update_b: bool = True,
    update_c: bool = True,
) -> tuple[ControlPlacement, float]:
    """Best (drivers, controlled) placement found by projected descent.

    Runs cfg.restarts independent descents, the first from EDCP's
    placement on the same network when EDCP has one (so the result is never
    worse than EDCP's), the others from cover-seeded starts, and returns
    the cheapest output-controllable placement seen anywhere.
    Freezing update_b or update_c recovers the single-variable variants.
    """
    cfg = cfg or ElpgmConfig()
    a = _as_matrix(a, "A")
    if a.shape[1] != a.shape[0]:
        raise ValueError("A must be square")
    return _descend(_Request(DirectedGraph.from_adjacency(a), m, cfg.t_f, a), r_size, cfg, update_b, update_c)


def _descend(req: _Request, r_size: int, cfg: ElpgmConfig, update_b: bool = True, update_c: bool = True):
    """`elpgm_optimize` on a request: its graph, m, t_f and A (cfg.t_f is not read)."""
    n, m = req.g.n, req.m
    if not (1 <= m <= r_size <= n):
        raise ValueError(f"need 1 <= m <= r_size <= n, got m = {m}, r_size = {r_size}, n = {n}")
    seed_seq = np.random.SeedSequence(cfg.seed)
    problem = _Problem(req, r_size, cfg, update_b, update_c)
    try:
        problem.draw(np.random.default_rng(seed_seq.spawn(1)[0]), 0)
    except UncontrollableError:
        pass  # the restarts draw again; EDCP may still provide a start
    edcp_start = problem.edcp_start()
    for restart, child in enumerate(seed_seq.spawn(cfg.restarts)):
        if len(problem.entries) == problem.supports:
            break  # every support has its entry, so the best can no longer change
        rng = np.random.default_rng(child)
        if restart == 0 and edcp_start is not None:
            drivers, controlled = edcp_start  # one descent starts from EDCP's placement
        else:
            kind = 0 if restart == 0 else (1 if restart % 3 == 1 else 2)
            try:
                drivers, controlled = problem.draw(rng, kind)
            except UncontrollableError:
                if problem.best is None:
                    continue
                drivers, controlled = problem.best
        state = problem.support(drivers, controlled)
        # an iterate reads 20 rows of B uniforms, then 20 of C, whether or not
        # a retry is accepted, so the restart draws all k_f iterates' at once
        size_b = 0 if problem.m1_b is None else m + problem.m1_b
        size_c = 0 if problem.m1_c is None else r_size + problem.m1_c
        e = rng.random((cfg.k_f, _PROJECTION_RETRIES * (size_b + size_c)))
        with np.errstate(divide="ignore"):  # u = 0 gives an infinite exponential
            np.negative(np.log(e, out=e), out=e)  # in place: the restart holds one array
        e_b = e[:, :_PROJECTION_RETRIES * size_b].reshape(cfg.k_f, _PROJECTION_RETRIES, size_b)
        e_c = e[:, _PROJECTION_RETRIES * size_b:].reshape(cfg.k_f, _PROJECTION_RETRIES, size_c)
        k, window = 0, 1
        while k < cfg.k_f and len(problem.entries) < problem.supports:
            # the iterate stays until a retry is accepted, so one pool serves
            # the window's iterates; retry i of each takes row i of each draw,
            # and a frozen variable keeps its nodes
            stop = min(k + window, cfg.k_f)
            _, pool_b, pool_c = state
            rows = (stop - k) * _PROJECTION_RETRIES
            with np.errstate(divide="ignore"):  # zero weights give infinite keys
                draws_b = (np.broadcast_to(drivers, (rows, m)) if pool_b is None
                           else _draw(*pool_b, m, e_b[k:stop]).reshape(rows, m))
                draws_c = (np.broadcast_to(controlled, (rows, r_size)) if pool_c is None
                           else _draw(*pool_c, r_size, e_c[k:stop]).reshape(rows, r_size))
            for row in problem.reaches(draws_b, draws_c).nonzero()[0].tolist():
                new_drivers, new_controlled = draws_b[row].tolist(), draws_c[row].tolist()
                accepted = problem.support(new_drivers, new_controlled)
                if accepted is not None:
                    drivers, controlled, state = new_drivers, new_controlled, accepted
                    k, window = k + row // _PROJECTION_RETRIES + 1, 1
                    break
            else:
                k, window = stop, 2 * window

    if problem.best is None:
        raise UncontrollableError("no controllable initialization found")
    drivers, controlled = problem.best
    return ControlPlacement(tuple(drivers), tuple(controlled), req.t_f), float(problem.best_e)
