"""Nozzle interference avoidance: neighbour detection, height-monotone
path splitting, the height constraint graph, and branch-and-bound search
for a topological order that minimises (weighted) seam count.

Heights are compared with a tie tolerance; a pair of subpaths whose mean
height difference stays within it is independent. Gap bookkeeping counts
each gap location once: the free-transition test uses the coarse
tolerance eps_gap, while set membership uses location ids (endpoints
within MATCH_TOL share one): revisiting a cut point is free, distinct
nearby cuts still count.
"""

from __future__ import annotations

import graphlib
import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gcode import CLOSURE_TOL, E, Move, Toolpath, Z, fold_sum
from .geometry import box_pairs, nearest_points, ragged, signed_area

TIE_TOL = 1e-6          # mm, height ties below this create no constraint
MATCH_TOL = 1e-6        # mm, two gap locations closer than this are the same
EXPANSION_CAP = 50_000  # search expansions before the best order so far stands


# ---------------------------------------------------------------------------
# Threshold and neighbour pairs

def interference_threshold(profile):
    """Nozzle interference radius: (tau + d)/2 + h * cot(alpha).

    The height difference is taken as the layer thickness h, a
    conservative bound: the anti-aliasing never displaces a path by more
    than that."""
    cot = 1.0 / math.tan(profile.alpha)
    return (profile.tau + profile.d) / 2.0 + profile.h * cot


def find_neighbors(paths, eps):
    """Index pairs i < j whose closest XY approach is below eps: some vertex
    of one path lies within eps of the other path's segments. Each maps to
    its sides' rows, ((dist, z) of i's vertices against j, then j's against
    i)."""
    coords = [p.vertices for p in paths]
    pairs = box_pairs(coords, eps)
    jobs = [job for i, j in pairs for job in ((i, j), (j, i))]
    dist, z, _ = nearest_points([coords[i] for i, _ in jobs],
                                [coords[j] for _, j in jobs])
    rows = np.cumsum([len(coords[i]) for i, _ in jobs], dtype=np.int64)[:-1]
    sides = iter(zip(np.split(dist, rows), np.split(z, rows)))
    return {pair: (a, b) for pair, a, b in zip(pairs, sides, sides)
            if (a[0] < eps).any() or (b[0] < eps).any()}


# ---------------------------------------------------------------------------
# Splitting

@dataclass(eq=False)
class SubPath:
    parent: object            # Toolpath
    parent_id: int
    vertices: np.ndarray      # a run of the parent's vertex rows
    first_is_cut: bool
    last_is_cut: bool
    entry_weight: float = 1.5  # gap_cost at the first and last vertex
    exit_weight: float = 1.5

    @property
    def entry(self):
        return tuple(self.vertices[0, :3].tolist())

    @property
    def exit(self):
        return tuple(self.vertices[-1, :3].tolist())

    @cached_property
    def height(self):
        return fold_sum(self.vertices[:, Z].tolist()) / len(self.vertices)

    def __len__(self):
        return len(self.vertices)


def _unique_cycle(path):
    """The path's vertex rows; for a closed path, a copy with the closing
    duplicate folded into the first vertex's segment extrusion."""
    verts = path.vertices
    if path.closed and len(verts) > 2 \
            and math.dist(verts[0, :3].tolist(),
                          verts[-1, :3].tolist()) < CLOSURE_TOL:
        cycle = verts[:-1].copy()
        cycle[0, E] = verts[-1, E]
        return cycle
    return verts


def _signals(verts, dist, z, eps):
    """Per-vertex height sign against the nearest point of the neighbour,
    given each vertex's distance to it and its z: +1/-1 strict, 0 tie,
    None out of range."""
    return [None if d >= eps else +1 if dz > TIE_TOL else -1 if dz < -TIE_TOL
            else 0 for d, dz in zip(dist.tolist(), (verts[:, Z] - z).tolist())]


def _cuts_from_signals(signals, closed):
    """Vertex indices where the strict sign flips, carrying the previous
    strict sign across ties and out-of-range stretches. The cut lands on
    the first vertex of each new strict run."""
    strict = [(i, s) for i, s in enumerate(signals) if s in (1, -1)]
    if len(strict) < 2:
        return set()
    cuts = set()
    prev_sign = strict[-1 if closed else 0][1]
    for i, s in strict:
        if s != prev_sign:
            cuts.add(i)
        prev_sign = s
    return cuts


def split_paths(paths, neighbors, eps):
    """Cut every path at the vertices where its height relation to some
    neighbour flips sign, so each resulting subpath is consistently
    above, below, or tied with each neighbour along its whole extent, as
    `find_neighbors`' rows for the pair tell."""
    cycles = [_unique_cycle(path) for path in paths]
    cuts = [set() for _ in paths]
    for pair, sides in neighbors.items():
        for i, (dist, z) in zip(pair, sides):
            n = len(cycles[i])      # a cycle's rows lead its path's
            cuts[i] |= _cuts_from_signals(
                _signals(cycles[i], dist[:n], z[:n], eps), paths[i].closed)
    return [sp for pid, path in enumerate(paths)
            for sp in _materialise(path, pid, cycles[pid], sorted(cuts[pid]))]


def _materialise(path, pid, cycle, cuts):
    """The subpaths between consecutive cuts, each weighted by the seam
    cost at its first and last vertex. A closed path is rotated to start
    at its first cut; uncut, it is one piece from vertex 0 round to 0."""
    n = len(cycle)
    closed = path.closed
    ccw = not closed or signed_area(cycle[:, :2].tolist()) >= 0
    bounds = [0] + cuts + [n - 1]
    if closed:
        first = cuts[0] if cuts else 0
        cycle = np.concatenate([cycle[first:], cycle[:first]])
        bounds = sorted((c - first) % n for c in cuts) or [0]
        bounds.append(n)
    cut_loop = closed and bool(cuts)
    out = []
    for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if cuts and b <= a:
            continue                # an open path cut at its last vertex
        out.append(SubPath(
            parent=path, parent_id=pid,
            vertices=(cycle[a:b + 1] if b < n
                      else np.concatenate([cycle[a:], cycle[:1]])),
            first_is_cut=cut_loop or k > 0, last_is_cut=cut_loop or b < n - 1,
            entry_weight=gap_cost(_exterior_angle_at(cycle, a, closed, ccw)),
            exit_weight=gap_cost(_exterior_angle_at(cycle, b % n, closed, ccw))))
    return out


# ---------------------------------------------------------------------------
# Height comparison and the constraint graph

def compare_heights(pairs, eps):
    """Mean signed height difference (a minus b) over the nearest-point
    pairs within eps, for every subpath pair (a, b); None where there are
    none. Pairs sourced at a cut vertex, or whose nearest point lands on
    the other subpath's cut endpoint, are skipped: a shared cut vertex
    belongs to two subpaths and would smear one pair's relation into the
    other. Each mean adds its terms left to right, a's rows then b's."""
    jobs = [job for sa, sb in pairs for job in ((sa, sb), (sb, sa))]
    dist, z, endpoint = nearest_points([src.vertices for src, _ in jobs],
                                       [dst.vertices for _, dst in jobs])
    size = np.array([len(src) for src, _ in jobs], dtype=np.int64)
    job, row = ragged(size)
    cut = np.array([(src.first_is_cut, src.last_is_cut, dst.first_is_cut,
                     dst.last_is_cut) for src, dst in jobs],
                   dtype=bool).reshape(-1, 4)[job].T
    keep = (~(cut[0] & (row == 0)) & ~(cut[1] & (row == size[job] - 1))
            & (dist < eps) & ~(cut[2] & (endpoint == -1))
            & ~(cut[3] & (endpoint == 1)))
    vz = np.concatenate([src.vertices[:, Z] for src, _ in jobs] + [[]])
    terms = (np.where(job % 2 == 0, 1.0, -1.0) * (vz - z))[keep].tolist()
    count = np.bincount(job[keep] // 2, minlength=len(pairs)).tolist()
    ends = np.cumsum(count, dtype=np.int64).tolist()
    return [fold_sum(terms[e - c:e]) / c if c else None
            for e, c in zip(ends, count)]


@dataclass
class ConstraintGraph:
    nodes: list
    edges: list = field(default_factory=list)   # (u, v): u prints before v
    dropped: list = field(default_factory=list)  # (u, v, mean) cut from cycles


def build_constraint_graph(subpaths, eps):
    """Edge u -> v whenever u and v come within eps and u is decisively
    lower: the lower subpath must print first. Only subpaths of distinct
    parents are constrained. Each height cycle loses the edge with the
    weakest evidence, the smallest |mean height difference| (the first
    such edge in cycle order), read from the one comparison that made
    each edge; removed edges go to `dropped` as (u, v, mean), so the
    result is acyclic."""
    graph = ConstraintGraph(nodes=subpaths)
    pairs = [(i, j) for i, j in box_pairs([sp.vertices for sp in subpaths], eps)
             if subpaths[i].parent_id != subpaths[j].parent_id]
    means = compare_heights([(subpaths[i], subpaths[j]) for i, j in pairs], eps)
    below = {}      # each kept edge's mean, lower minus upper: -|mean|
    for (i, j), mean in zip(pairs, means):
        if mean is not None and abs(mean) > TIE_TOL:
            below[(i, j) if mean < 0 else (j, i)] = -abs(mean)
    graph.edges = list(below)
    while (cycle := _find_cycle(graph)) is not None:
        edge = min(zip(cycle, cycle[1:]), key=lambda e: -below[e])
        graph.edges.remove(edge)
        graph.dropped.append((*edge, below[edge]))
    return graph


def _find_cycle(graph):
    """A cycle [a, b, ..., a] of the graph's edges, each node a predecessor
    of the next, or None when the graph is acyclic."""
    preds = {}
    for u, v in graph.edges:
        preds.setdefault(v, []).append(u)
    try:
        graphlib.TopologicalSorter(preds).prepare()
    except graphlib.CycleError as exc:
        return exc.args[1]
    return None


# ---------------------------------------------------------------------------
# Seam costs

def gap_cost(theta):
    """Visibility weight of a seam: 1 + theta / 2pi, theta the angle
    opening to the model's outside at the gap, which `_exterior_angle_at`
    returns in [0, 2pi]."""
    return 1.0 + theta / (2 * math.pi)


def _exterior_angle_at(verts, i, closed, ccw):
    """Angle opening to the outside of the model at row i of a path's
    unique vertex rows, for a path whose interior lies to the left (`ccw`)
    or to the right. Straight walls give pi, convex corners more, concave
    notches less; open-path endpoints default to pi."""
    n = len(verts)
    if not closed and i in (0, n - 1):
        return math.pi
    px, py = verts[(i - 1) % n if closed else i - 1, :2].tolist()
    cx, cy = verts[i, :2].tolist()
    nx, ny = verts[(i + 1) % n if closed else i + 1, :2].tolist()
    ax, ay = cx - px, cy - py
    bx, by = nx - cx, ny - cy
    la = math.hypot(ax, ay)
    lb = math.hypot(bx, by)
    if la < 1e-12 or lb < 1e-12:
        return math.pi
    turn = math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    return math.pi + (turn if ccw else -turn)


# ---------------------------------------------------------------------------
# Order search

@dataclass
class OrderResult:
    order: list               # SubPath sequence
    cost: float
    gap_locations: list
    explored_orders: int
    expansions: int
    suboptimal: bool
    root_bound: float         # the search's lower bound before any choice
    wall_time: float

    def report(self, graph):
        return {
            "subpaths": len(graph.nodes),
            "edges": len(graph.edges),
            "orders_considered": self.explored_orders,
            "best_cost": self.cost,
            "gaps": len(self.gap_locations),
            "gap_locations": [list(map(float, p)) for p in self.gap_locations],
            "suboptimal": self.suboptimal,
            "root_bound": self.root_bound,
            "wall_time_s": self.wall_time,
            "expansions": self.expansions,
            "cycle_edges_dropped": [
                {"from": u, "to": v, "mean_dz_mm": mean,
                 "from_entry": list(graph.nodes[u].entry),
                 "to_entry": list(graph.nodes[v].entry)}
                for u, v, mean in graph.dropped],
        }


def order_paths(graph, eps_gap, weighted=False, max_expansions=EXPANSION_CAP):
    """Minimal-seam topological order of the constraint graph: the branch
    and bound minimises entry gap + transition gaps + exit gap, with each
    gap location counted once."""
    t0 = time.perf_counter()
    seams = _Seams(graph.nodes, eps_gap, weighted)
    return OrderResult(*_search(graph, seams, max_expansions),
                       wall_time=time.perf_counter() - t0)


class _Seams:
    """Where the seams of the subpaths can fall, and what a step of an
    order pays for them.

    Location ids: endpoints are taken in node order, entry before exit;
    each takes the id of the first earlier endpoint within MATCH_TOL, or
    else a new id whose point it is. `near[a]` is the set of locations
    within eps_gap of `a` (itself included), so that no cost recomputes a
    distance; both distance tests run on the box grid's candidate pairs
    only. `entry[i]` and `exit[i]` are node i's (location, weight) pairs,
    the weight 1.0 unless seams are weighted. The ledger of paid locations
    flags them in `paid` and lists them in paying order."""

    def __init__(self, nodes, eps_gap, weighted):
        ends = [p for sp in nodes for p in (sp.entry, sp.exit)]
        earliest = {}
        # each point is a one-row polyline to box_pairs, whose pairs come
        # sorted by (i, j): j meets its earliest match first
        for i, j in box_pairs(np.reshape(ends, (-1, 1, 3)), MATCH_TOL):
            if j not in earliest and math.dist(ends[i], ends[j]) <= MATCH_TOL:
                earliest[j] = i
        ids = []
        self.points = []
        for j, p in enumerate(ends):
            if j in earliest:
                ids.append(ids[earliest[j]])
            else:
                ids.append(len(self.points))
                self.points.append(p)
        self.entry = [(loc, sp.entry_weight if weighted else 1.0)
                      for sp, loc in zip(nodes, ids[0::2])]
        self.exit = [(loc, sp.exit_weight if weighted else 1.0)
                     for sp, loc in zip(nodes, ids[1::2])]
        self.near = [{a} for a in range(len(self.points))]
        for a, b in box_pairs(np.reshape(self.points, (-1, 1, 3)), eps_gap):
            if math.dist(self.points[a], self.points[b]) <= eps_gap:
                self.near[a].add(b)
                self.near[b].add(a)
        self.paid = [False] * len(self.points)
        self.ledger = []

    def step(self, prev, nxt):
        """The (location, weight) pairs the step prev -> nxt may pay: the
        first entry when prev is None, the last exit when nxt is None, and
        otherwise both ends unless the entry lies within eps_gap of the
        exit."""
        if prev is None:
            return () if nxt is None else (self.entry[nxt],)
        if nxt is None:
            return (self.exit[prev],)
        if self.entry[nxt][0] in self.near[self.exit[prev][0]]:
            return ()
        return (self.exit[prev], self.entry[nxt])

    def pay(self, step):
        """Pay the step's unpaid locations; their weights' sum in step order."""
        added = 0.0
        for loc, weight in step:
            if not self.paid[loc]:
                self.paid[loc] = True
                self.ledger.append(loc)
                added += weight
        return added

    def undo(self, mark):
        """Unpay the locations paid since the ledger held `mark` of them."""
        while len(self.ledger) > mark:
            self.paid[self.ledger.pop()] = False

    def cost(self, seq):
        """(cost, gap points) of seq: each step's `pay` added to the total."""
        mark = len(self.ledger)
        cost = 0.0
        for prev, nxt in zip([None, *seq], [*seq, None]):
            cost += self.pay(self.step(prev, nxt))
        gaps = [self.points[loc] for loc in self.ledger[mark:]]
        self.undo(mark)
        return cost, gaps


def _search(graph, seams, max_expansions):
    """Depth-first branch and bound over the topological orders of the
    nodes, on an explicit stack, so that no layer is too large for it.
    Returns OrderResult's fields up to its wall time, the best order
    found first."""
    nodes = graph.nodes
    n = len(nodes)
    entry, exit_, near, paid = seams.entry, seams.exit, seams.near, seams.paid
    remaining = set(range(n))
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in graph.edges:
        succ[u].append(v)
        indeg[v] += 1
    order = []
    best_cost, best_order = math.inf, None
    expansions = orders = 0
    capped = False

    def lower_bound(prev):
        """Admissible: a remaining entry gap can only be avoided by an
        exit within eps_gap immediately before it (the previous exit or a
        remaining exit); a remaining exit gap only by a remaining entry
        after it. The last node's exit is always paid, and so, at the
        root, is the first node's entry. Locations already paid are free;
        each location contributes at most once."""
        prev_exit, prev_w = exit_[prev] if prev is not None else (None, 0.0)
        entry_ids = set()
        exit_ids = set()
        loc_weight = {}
        for i in remaining:
            entry_ids.add(entry[i][0])
            exit_ids.add(exit_[i][0])
            for loc, w in (entry[i], exit_[i]):
                if loc not in loc_weight or w < loc_weight[loc]:
                    loc_weight[loc] = w
        counted = set()

        def extra(loc):
            """What paying `loc` adds to the bound (0 once paid or counted)."""
            if paid[loc] or loc in counted:
                return 0.0
            if loc == prev_exit:
                # the pending exit of the placed node may pay this
                # location first at its own (possibly lower) weight
                return min(loc_weight[loc], prev_w)
            return loc_weight[loc]

        bound = 0.0
        for loc in loc_weight:
            if paid[loc]:
                continue
            row = near[loc]
            entry_ok = (loc not in entry_ids or prev_exit in row
                        or not row.isdisjoint(exit_ids))
            exit_ok = loc not in exit_ids or not row.isdisjoint(entry_ids)
            if entry_ok and exit_ok:
                continue
            bound += extra(loc)
            counted.add(loc)

        lasts = [i for i in remaining if not succ[i]]
        if prev is not None:
            return bound + min((extra(exit_[i][0]) for i in lasts),
                               default=0.0)
        firsts = [i for i in remaining if indeg[i] == 0]
        ends = min((extra(entry[f][0]) if entry[f][0] == exit_[i][0]
                    else extra(entry[f][0]) + extra(exit_[i][0])
                    for f in firsts for i in lasts
                    if f != i or len(remaining) == 1), default=0.0)
        return bound + ends

    root_bound = lower_bound(None)
    start = len(seams.ledger)
    # the open nodes of the depth-first walk, root first: each frame holds
    # a node's cost, the node, the ledger mark from before it was placed,
    # and its children not yet tried with their steps
    stack = []
    cost, prev, mark = 0.0, None, start
    while True:
        expansions += 1
        # on a DAG the first complete order comes within n + 1 expansions,
        # since nothing is pruned before it; the cap applies after that
        if expansions > max_expansions and best_order is not None:
            capped = True
            break
        children, steps = (), None
        if not remaining:
            final = cost + seams.pay(seams.step(prev, None))
            orders += 1
            if final < best_cost:
                best_cost, best_order = final, list(order)
        elif cost + lower_bound(prev) < best_cost:
            steps = {i: seams.step(prev, i) for i in remaining if indeg[i] == 0}
            children = sorted(steps, key=lambda i: (bool(steps[i]),
                                                    nodes[i].height, i))
        stack.append((cost, prev, mark, iter(children), steps))
        # back up to the deepest open node with a child left, taking back
        # each node left behind; an order that meets the root bound ends
        # the search
        nxt = None
        while stack and best_cost > root_bound:
            cost, prev, mark, children, steps = stack[-1]
            nxt = next(children, None)
            if nxt is not None:
                break
            stack.pop()
            if prev is not None:
                for v in succ[prev]:
                    indeg[v] += 1
                remaining.add(prev)
                order.pop()
                seams.undo(mark)
        if nxt is None:
            break
        mark = len(seams.ledger)
        cost += seams.pay(steps[nxt])
        order.append(nxt)
        remaining.discard(nxt)
        for v in succ[nxt]:
            indeg[v] -= 1
        prev = nxt
    # a search cut short leaves nodes placed; their payments go before the
    # best order is priced
    seams.undo(start)
    return ([nodes[i] for i in best_order], best_cost,
            seams.cost(best_order)[1], orders, expansions, capped, root_bound)


def relink_travels(layer, paths, eps_gap, travel_f):
    """Rebuild a layer's event list from a sequence of Toolpaths.

    Non-motion lines stay at the head in their original order; original
    travels and retractions are dropped (the new sequence regenerates
    motion). Transitions within eps_gap link up without a rapid (no
    extrusion pause at a hidden seam); larger gaps get a rapid travel.
    Either way the travel's Z is already the destination's displaced
    height.
    """
    events = [ev for ev in layer.events
              if not isinstance(ev, (Toolpath, Move))]
    pos = None
    for path in paths:
        entry = tuple(path.vertices[0, :3].tolist())
        x, y, z = entry
        if pos is None:
            events.append(Move(x, y, z, f=travel_f))
        else:
            gap = math.dist(pos, entry)
            if gap > MATCH_TOL:
                events.append(Move(x, y, z, f=travel_f, rapid=gap > eps_gap))
        events.append(path)
        pos = tuple(path.vertices[-1, :3].tolist())
    layer.events = events
