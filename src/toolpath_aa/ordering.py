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

import math
import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gcode import E, EOnly, Toolpath, Travel, Z, fold_sum
from .geometry import box_pairs, nearest_points, signed_area

TIE_TOL = 1e-6          # mm, height ties below this create no constraint
MATCH_TOL = 1e-6        # mm, two gap locations closer than this are the same
EXPANSION_CAP = 50_000  # search expansions before the best order so far stands


class OrderingError(Exception):
    pass


# ---------------------------------------------------------------------------
# Threshold and neighbour pairs

def interference_threshold(profile, dh=None):
    """Nozzle interference radius: (tau + d)/2 + dh * cot(alpha).

    dh defaults to the layer thickness (a conservative bound: the
    anti-aliasing never displaces a path by more than that)."""
    if dh is None:
        dh = profile.h
    if dh < 0:
        raise ValueError("height difference must be non-negative")
    if profile.alpha <= 0:
        raise ValueError("alpha = 0 leaves an infinite flange, no threshold")
    cot = 1.0 / math.tan(profile.alpha)
    return (profile.tau + profile.d) / 2.0 + dh * cot


def find_neighbors(paths, eps):
    """Unordered index pairs whose closest XY approach is below eps: some
    vertex of one path lies within eps of the other path's segments.

    Pairs where neither path was modified are skipped: unmodified paths
    bypass ordering entirely.
    """
    coords = [p.vertices for p in paths]
    pairs = [(i, j) for i, j in box_pairs(coords, eps)
             if paths[i].modified or paths[j].modified]
    jobs = [job for i, j in pairs for job in ((i, j), (j, i))]
    dist, _, _ = nearest_points([coords[i] for i, _ in jobs],
                                [coords[j] for _, j in jobs])
    job = np.repeat(np.arange(len(jobs)), [len(coords[i]) for i, _ in jobs])
    near = set((job[dist < eps] // 2).tolist())
    return [pair for k, pair in enumerate(pairs) if k in near]


# ---------------------------------------------------------------------------
# Splitting

@dataclass(eq=False)
class SubPath:
    parent: object            # Toolpath
    parent_id: int
    vertices: np.ndarray      # a run of the parent's vertex rows
    modified: bool
    first_is_cut: bool
    last_is_cut: bool
    index: int = -1
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
            and math.dist(verts[0, :3].tolist(), verts[-1, :3].tolist()) < 1e-6:
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


def split_paths(paths, neighbor_pairs, eps):
    """Cut every path at the vertices where its height relation to some
    neighbour flips sign, so each resulting subpath is consistently
    above, below, or tied with each neighbour along its whole extent."""
    jobs = list(neighbor_pairs) + [(j, i) for i, j in neighbor_pairs]
    cycles = [_unique_cycle(path) for path in paths]
    dist, z, _ = nearest_points([cycles[i] for i, _ in jobs],
                                [paths[j].vertices for _, j in jobs])
    cuts = [set() for _ in paths]
    rows = np.cumsum([len(cycles[i]) for i, _ in jobs], dtype=np.int64)[:-1]
    for (i, _), d, zs in zip(jobs, np.split(dist, rows), np.split(z, rows)):
        cuts[i] |= _cuts_from_signals(_signals(cycles[i], d, zs, eps),
                                      paths[i].closed)
    subpaths = []
    for pid, path in enumerate(paths):
        subpaths.extend(_materialise(path, pid, cycles[pid], sorted(cuts[pid])))
    for k, sp in enumerate(subpaths):
        sp.index = k
    return subpaths


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
            modified=path.modified,
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
    job = np.repeat(np.arange(len(jobs)), size)
    row = np.arange(len(job)) - (np.cumsum(size) - size)[job]
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

    def in_degrees(self):
        deg = [0] * len(self.nodes)
        for _, v in self.edges:
            deg[v] += 1
        return deg


def build_constraint_graph(subpaths, eps):
    """Edge u -> v whenever u and v come within eps and u is decisively
    lower: the lower subpath must print first. Only modified subpaths of
    distinct parents are constrained. Each height cycle loses the edge
    with the weakest evidence, the smallest |mean height difference|
    (the first such edge in cycle order); removed edges go to `dropped`
    as (u, v, mean), so the result is acyclic."""
    graph = ConstraintGraph(nodes=subpaths)
    pairs = [(i, j) for i, j in box_pairs([sp.vertices for sp in subpaths], eps)
             if subpaths[i].modified and subpaths[j].modified
             and subpaths[i].parent_id != subpaths[j].parent_id]
    means = compare_heights([(subpaths[i], subpaths[j]) for i, j in pairs], eps)
    for (i, j), mean in zip(pairs, means):
        if mean is not None and abs(mean) > TIE_TOL:
            graph.edges.append((i, j) if mean < 0 else (j, i))
    while (cycle := _find_cycle(graph)) is not None:
        edges = list(zip(cycle, cycle[1:]))
        means = compare_heights([(subpaths[u], subpaths[v]) for u, v in edges],
                                eps)
        mean, (u, v) = min(zip(means, edges), key=lambda t: abs(t[0]))
        graph.edges.remove((u, v))
        graph.dropped.append((u, v, mean))
    return graph


def _find_cycle(graph):
    n = len(graph.nodes)
    indeg = graph.in_degrees()
    queue = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    succ = {}
    for u, v in graph.edges:
        succ.setdefault(u, []).append(v)
    while queue:
        u = queue.pop()
        seen += 1
        for v in succ.get(u, ()):
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if seen == n:
        return None
    # every node left over keeps a predecessor that is left over too, so a
    # walk along predecessors closes a cycle (a walk along successors can
    # start downstream of one and dead-end)
    pred = {}
    for u, v in graph.edges:
        if indeg[u] > 0 and indeg[v] > 0:
            pred.setdefault(v, []).append(u)
    cur = min(pred)
    pos = {}
    while cur not in pos:
        pos[cur] = len(pos)
        cur = pred[cur][0]
    cycle = list(pos)[pos[cur]:][::-1]
    return cycle + [cycle[0]]


# ---------------------------------------------------------------------------
# Seam costs

def gap_cost(theta):
    """Visibility weight of a seam: 1 + theta / 2pi, theta the angle
    opening to the model's outside at the gap."""
    if theta < 0 or theta > 2 * math.pi:
        warnings.warn(f"exterior angle {theta} clamped into [0, 2pi]")
        theta = min(max(theta, 0.0), 2 * math.pi)
    return 1.0 + theta / (2 * math.pi)


def exterior_angle(path, vertex_index):
    """Angle opening to the outside of the model at a path vertex.

    Straight walls give pi, convex corners more, concave notches less.
    Open-path endpoints default to pi.
    """
    verts = _unique_cycle(path)
    ccw = not path.closed or signed_area(verts[:, :2].tolist()) >= 0
    return _exterior_angle_at(verts, vertex_index, path.closed, ccw)


def _exterior_angle_at(verts, i, closed, ccw):
    """`exterior_angle` at row i of the path's unique vertex rows, for a
    path whose interior lies to the left (`ccw`) or to the right."""
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
    order: list               # SubPath sequence, unmodified first
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
    """Minimal-seam topological order of the constraint graph.

    Unmodified subpaths are emitted first in their original order and do
    not enter the objective; the branch and bound then minimises
    entry gap + transition gaps + exit gap over the modified nodes, with
    each gap location counted once.
    """
    t0 = time.perf_counter()
    modified = [i for i, sp in enumerate(graph.nodes) if sp.modified]
    seams = _Seams(graph.nodes, modified, eps_gap, weighted)
    return OrderResult(*_search(graph, seams, max_expansions),
                       wall_time=time.perf_counter() - t0)


class _Seams:
    """Where the seams of the modified subpaths can fall, and what a step
    of an order pays for them.

    Location ids: endpoints are taken in node order, entry before exit;
    each takes the id of the first earlier endpoint within MATCH_TOL, or
    else a new id whose point it is. `near[a]` is the set of locations
    within eps_gap of `a` (itself included), so that no cost recomputes a
    distance; both distance tests run on the box grid's candidate pairs
    only. `entry[i]` and `exit[i]` are node i's (location, weight) pairs,
    the weight 1.0 unless seams are weighted. Every cost charges a
    location once."""

    def __init__(self, nodes, modified, eps_gap, weighted):
        ends = [p for i in modified for p in (nodes[i].entry, nodes[i].exit)]
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
        self.entry = {i: (loc, nodes[i].entry_weight if weighted else 1.0)
                      for i, loc in zip(modified, ids[0::2])}
        self.exit = {i: (loc, nodes[i].exit_weight if weighted else 1.0)
                     for i, loc in zip(modified, ids[1::2])}
        self.near = [{a} for a in range(len(self.points))]
        for a, b in box_pairs(np.reshape(self.points, (-1, 1, 3)), eps_gap):
            if math.dist(self.points[a], self.points[b]) <= eps_gap:
                self.near[a].add(b)
                self.near[b].add(a)

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

    def cost(self, seq):
        """(cost, gap points) of the node sequence seq."""
        paid = {}
        cost = 0.0
        for prev, nxt in zip([None, *seq], [*seq, None]):
            for loc, weight in self.step(prev, nxt):
                if loc not in paid:
                    paid[loc] = None
                    cost += weight
        return cost, [self.points[loc] for loc in paid]


def _search(graph, seams, max_expansions):
    """Depth-first branch and bound over the topological orders of the
    modified nodes. Returns OrderResult's fields up to its wall time: the
    unmodified nodes in their original order, then the best order found."""
    nodes = graph.nodes
    entry, exit_, near = seams.entry, seams.exit, seams.near
    remaining = set(entry)
    succ = {i: [] for i in entry}
    indeg = dict.fromkeys(entry, 0)
    for u, v in graph.edges:
        if u in remaining and v in remaining:
            succ[u].append(v)
            indeg[v] += 1
    in_gaps = [False] * len(seams.points)
    gap_list = []
    order = []
    best_cost, best_order, best_gaps = math.inf, None, None
    expansions = orders = 0
    capped = False

    def pay(step):
        """Charge the step's locations that are not in the gap set yet."""
        added = 0.0
        for loc, weight in step:
            if not in_gaps[loc]:
                in_gaps[loc] = True
                gap_list.append(loc)
                added += weight
        return added

    def pop_gaps(mark):
        while len(gap_list) > mark:
            in_gaps[gap_list.pop()] = False

    def lower_bound(prev):
        """Admissible: a remaining entry gap can only be avoided by an
        exit within eps_gap immediately before it (the previous exit or a
        remaining exit); a remaining exit gap only by a remaining entry
        after it. The last node's exit is always paid, and so, at the
        root, is the first node's entry. Locations already in the gap set
        are free; each location contributes at most once."""
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
            if in_gaps[loc] or loc in counted:
                return 0.0
            if loc == prev_exit:
                # the pending exit of the placed node may pay this
                # location first at its own (possibly lower) weight
                return min(loc_weight[loc], prev_w)
            return loc_weight[loc]

        bound = 0.0
        for loc in loc_weight:
            if in_gaps[loc]:
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

    def dfs(cost, prev):
        nonlocal best_cost, best_order, best_gaps, expansions, orders, capped
        if capped:
            return
        expansions += 1
        # on a DAG the first complete order comes within n + 1 expansions,
        # since nothing is pruned before it; the cap applies after that
        if expansions > max_expansions and best_order is not None:
            capped = True
            return
        if not remaining:
            mark = len(gap_list)
            final = cost + pay(seams.step(prev, None))
            orders += 1
            if final < best_cost:
                best_cost, best_order = final, list(order)
                best_gaps = [seams.points[g] for g in gap_list]
            pop_gaps(mark)
            return
        if cost + lower_bound(prev) >= best_cost:
            return
        steps = {i: seams.step(prev, i) for i in remaining if indeg[i] == 0}
        for i in sorted(steps, key=lambda i: (bool(steps[i]),
                                              nodes[i].height, i)):
            mark = len(gap_list)
            added = pay(steps[i])
            order.append(i)
            remaining.discard(i)
            for v in succ[i]:
                indeg[v] -= 1
            dfs(cost + added, i)
            for v in succ[i]:
                indeg[v] += 1
            remaining.add(i)
            order.pop()
            pop_gaps(mark)
            if capped or best_cost <= root_bound:
                return

    root_bound = lower_bound(None)
    dfs(0.0, None)
    return ([sp for sp in nodes if not sp.modified]
            + [nodes[i] for i in best_order],
            best_cost, best_gaps, orders, expansions, capped, root_bound)


def relink_travels(layer, ordered_subpaths, eps_gap, travel_f):
    """Rebuild a layer's event list from an ordered subpath sequence.

    Non-motion lines stay at the head in their original order; original
    travels and retractions are dropped (the new sequence regenerates
    motion). Transitions within eps_gap link up without a rapid (no
    extrusion pause at a hidden seam); larger gaps get a rapid travel.
    Either way the travel's Z is already the destination's displaced
    height.
    """
    head = [ev for ev in layer.events
            if not isinstance(ev, (Toolpath, Travel, EOnly))]
    events = list(head)
    pos = None
    for sp in ordered_subpaths:
        entry = sp.entry
        x, y, z = entry
        if pos is None:
            events.append(Travel(x=x, y=y, z=z, f=travel_f, rapid=True))
        else:
            gap = math.dist(pos, entry)
            if gap > MATCH_TOL:
                events.append(Travel(x=x, y=y, z=z, f=travel_f,
                                     rapid=(gap > eps_gap)))
        events.append(Toolpath(vertices=sp.vertices, closed=False,
                               kind=sp.parent.kind,
                               layer_index=sp.parent.layer_index,
                               modified=sp.modified))
        pos = sp.exit
    layer.events = events
    return layer


def evaluate_order(graph, sequence, eps_gap, weighted=False):
    """Cost of a specific topological order of the modified nodes.

    sequence holds node indices into graph.nodes; raises if it violates a
    constraint edge or misses a modified node."""
    nodes = graph.nodes
    modified = {i for i, sp in enumerate(nodes) if sp.modified}
    if set(sequence) != modified:
        raise OrderingError("sequence must cover exactly the modified subpaths")
    position = {i: k for k, i in enumerate(sequence)}
    for u, v in graph.edges:
        if u in modified and v in modified and position[u] >= position[v]:
            raise OrderingError(f"sequence violates edge {u} -> {v}")
    return _Seams(nodes, sorted(modified), eps_gap, weighted).cost(sequence)
