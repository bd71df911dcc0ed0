"""The homogeneous system on multiplicity deviations and the uniform-
distribution transport problem on consecutive levels of the Young graph.

The system attached to a shape lam has one equation per partition rho of
n-1 dominating bar(lam) and one unknown per partition mu of n dominating
lam, with a unit entry exactly when mu covers rho.  When mu -> bar(mu)
identifies unknowns with equations, the matrix is unitriangular along the
dominance order and the deviations must vanish.

The transport problem asks for a nonnegative kernel supported on covering
pairs that pushes the uniform distribution on level n-1 to the uniform
distribution on level n; it is decided exactly by integer max-flow on the
network scaled by p(n-1) * p(n).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional

from .errors import SelfCheckError
from .exactla import RationalMatrix, rank
# not used here: perfbench/tests/test_perfbench.py reaches younglab.linsys.kernel
from .exactla import kernel  # noqa: F401
from .partitions import (
    Partition,
    _require_partition,
    bar,
    dominance_upset,
    enumerate_partitions,
    predecessors,
    successors,
)

__all__ = [
    "FlowInstance",
    "Statement1Report",
    "System3",
    "build_flow_instance",
    "build_system3",
    "polymorphism_feasibility",
    "statement1_check",
    "verify_witness",
]


class System3(NamedTuple):
    """0/1 system for one shape: rows rho over bar(lam), columns mu over lam."""

    lam: Partition
    row_index: tuple[Partition, ...]
    col_index: tuple[Partition, ...]
    matrix: RationalMatrix


def _cover_rows(lam: Partition):
    """Row and column index sets of lam's system and its rows as sparse
    {column: 1} dicts: row rho holds column mu exactly when mu covers rho."""
    _require_partition("lam", lam)
    if sum(lam) < 2:
        raise ValueError("need a partition of n >= 2")
    rows = tuple(dominance_upset(bar(lam)))
    cols = tuple(dominance_upset(lam))
    row_pos = {rho: i for i, rho in enumerate(rows)}
    sparse: list[dict[int, int]] = [{} for _ in rows]
    for j, mu in enumerate(cols):
        for g, _ in predecessors(mu):
            sparse[row_pos[g]][j] = 1
    return rows, cols, sparse


def build_system3(lam: Partition) -> System3:
    rows, cols, sparse = _cover_rows(lam)
    entries = [[row.get(j, 0) for j in range(len(cols))] for row in sparse]
    return System3(lam, rows, cols, RationalMatrix(entries, cols=len(cols)))


class Statement1Report(NamedTuple):
    lam: Partition
    bar_bijective: bool
    square: bool
    kernel_dim: int
    unipotent: bool


def statement1_check(lam: Partition) -> Statement1Report:
    """Inspect the system of lam: is mu -> bar(mu) a bijection onto the row
    set, and is the matrix square, unitriangular under that identification,
    and of zero kernel?

    The contract (verified across the sweep tests) is one-directional:
    bijective implies the other three.  Shapes whose index sets differ in
    size are reported as-is; their kernel dimension is experimental output.
    """
    rows, cols, sparse = _cover_rows(lam)
    images = [bar(mu) for mu in cols]
    bijective = len(set(images)) == len(images) and set(images) == set(rows)
    square = len(rows) == len(cols)
    kdim = len(cols) - rank(sparse)

    unipotent = False
    if bijective:
        # the column of mu has a 1 in the row of bar(mu) and no nonzero
        # entry in a later row
        row_pos = {rho: i for i, rho in enumerate(rows)}
        at = [row_pos[image] for image in images]
        unipotent = (
            all(sparse[i].get(j) == 1 for j, i in enumerate(at))
            and all(i <= at[j] for i, row in enumerate(sparse) for j in row)
        )
    return Statement1Report(lam, bijective, square, kdim, unipotent)


class FlowInstance(NamedTuple):
    """Transport instance between consecutive levels of the Young graph."""

    n: int
    left: tuple[Partition, ...]
    right: tuple[Partition, ...]
    edges: tuple[tuple[Partition, Partition], ...]
    supply: Fraction  # per left node
    demand: Fraction  # per right node


def build_flow_instance(n: int) -> FlowInstance:
    if n < 2:
        raise ValueError("need n >= 2")
    left = enumerate_partitions(n - 1)
    right = enumerate_partitions(n)
    edges = tuple(
        (gamma, mu) for gamma in left for mu in successors(gamma)
    )
    return FlowInstance(
        n, left, right, edges,
        Fraction(1, len(left)), Fraction(1, len(right)),
    )


class _Dinic:
    """Max flow with exact integer capacities.

    Each phase labels nodes by their exact residual distance to the sink
    (Ahuja, Magnanti and Orlin, *Network Flows*, 1993, section 7.4) and
    pushes one blocking flow along the arcs u -> v with dist[v] ==
    dist[u] - 1.  Such an arc lies on a shortest residual s-t path, so the
    depth-first search never descends into a dead end.  Dinic's labels by
    distance from the source admit the same arcs plus arcs into nodes with
    no shortest path on to the sink; a descent there returns 0 and changes
    no capacity.  Both searches therefore meet the same live arcs in the
    same adjacency order, and the flow is the same arc by arc.
    """

    def __init__(self, n: int):
        self.adj: list[list[list[int]]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def _levels(self, s: int, t: int) -> Optional[list[int]]:
        """Residual distances to t, by a BFS backward from t that stops once
        s is labelled; None when s cannot reach t.  Seen from adj[v], the
        arc u -> v has the residual capacity adj[u][rev][1]."""
        adj = self.adj
        dist = [-1] * len(adj)
        dist[t] = 0
        queue = [t]
        for v in queue:
            d = dist[v] + 1
            for u, _, rev in adj[v]:
                if dist[u] < 0 and adj[u][rev][1]:
                    dist[u] = d
                    if u == s:
                        return dist
                    queue.append(u)
        return None

    def _push(self, u: int, t: int, limit: int, dist, it) -> int:
        """Push up to `limit` from u to t along the arcs u -> v with
        dist[v] == dist[u] - 1; it[u] moves only past saturated or blocked
        arcs, and a node whose arcs are all spent leaves the phase."""
        if u == t:
            return limit
        total = 0
        below = dist[u] - 1
        while it[u] < len(self.adj[u]):
            edge = self.adj[u][it[u]]
            v, cap, rev = edge
            if cap and dist[v] == below:
                pushed = self._push(v, t, min(limit - total, cap), dist, it)
                if pushed:
                    edge[1] -= pushed
                    self.adj[v][rev][1] += pushed
                    total += pushed
                    if total == limit:
                        return total
            it[u] += 1
        dist[u] = -1  # blocked: no later arc of this phase may enter u
        return total

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            dist = self._levels(s, t)
            if dist is None:
                return flow
            flow += self._push(s, t, 1 << 62, dist, [0] * len(self.adj))

    def reachable_in_residual(self, s: int) -> set[int]:
        seen = {s}
        queue = [s]
        for u in queue:
            for v, cap, _ in self.adj[u]:
                if cap and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


def polymorphism_feasibility(n: int) -> dict:
    """Decide whether the uniform distribution on level n-1 can be pushed
    to the uniform distribution on level n along covering pairs.

    Returns a report with an exact witness kernel when feasible, or an
    exact max-flow certificate (flow value plus a saturated cut) when not.
    The witness is re-verified against every constraint before returning.
    """
    instance = build_flow_instance(n)
    p1, p2 = len(instance.left), len(instance.right)
    scale = p1 * p2
    source = 0
    sink = 1 + p1 + p2
    left_id = {g: 1 + i for i, g in enumerate(instance.left)}
    right_id = {m: 1 + p1 + j for j, m in enumerate(instance.right)}

    net = _Dinic(sink + 1)
    for g in instance.left:
        net.add_edge(source, left_id[g], p2)
    edge_slots: dict[tuple[Partition, Partition], tuple[int, int]] = {}
    for g, m in instance.edges:
        u = left_id[g]
        edge_slots[(g, m)] = (u, len(net.adj[u]))
        net.add_edge(u, right_id[m], scale)
    for m in instance.right:
        net.add_edge(right_id[m], sink, p1)

    flow = net.max_flow(source, sink)
    report = {
        "n": n,
        "feasible": flow == scale,
        "max_flow": flow,
        "required": scale,
        "witness": None,
        "cut": None,
    }
    if flow == scale:
        witness = {}
        for (g, m), (u, idx) in edge_slots.items():
            used = scale - net.adj[u][idx][1]
            if used:
                witness[(g, m)] = Fraction(used, scale)
        if not verify_witness(instance, witness):
            raise SelfCheckError(f"flow witness for n={n} fails verification")
        report["witness"] = witness
    else:
        # source side of a minimum cut certifies the upper bound exactly
        side = net.reachable_in_residual(source)
        cut_value = 0
        cut_edges: list[tuple] = []
        for g in instance.left:
            if left_id[g] not in side:
                cut_value += p2
                cut_edges.append(("source", g))
        for (g, m) in instance.edges:
            if left_id[g] in side and right_id[m] not in side:
                cut_value += scale
                cut_edges.append((g, m))
        for m in instance.right:
            if right_id[m] in side:
                cut_value += p1
                cut_edges.append((m, "sink"))
        report["cut"] = {"value": cut_value, "edges": cut_edges}
        if cut_value != flow:
            raise SelfCheckError(f"cut value {cut_value} != max flow {flow} for n={n}")
    return report


def verify_witness(instance: FlowInstance, witness: dict) -> bool:
    """Exact check of support, nonnegativity, and all row/column sums,
    in one pass over the witness.  The sums are taken in integers over one
    common denominator D of the witness, supply and demand."""
    allowed = set(instance.edges)
    supply, demand = instance.supply, instance.demand
    d = lcm(supply.denominator, demand.denominator,
            *(value.denominator for value in witness.values()))
    rows = dict.fromkeys(instance.left, 0)
    cols = dict.fromkeys(instance.right, 0)
    for key, value in witness.items():
        if key not in allowed or value.numerator < 0:
            return False
        g, m = key
        scaled = value.numerator * (d // value.denominator)
        rows[g] += scaled
        cols[m] += scaled
    supply_d = supply.numerator * (d // supply.denominator)
    demand_d = demand.numerator * (d // demand.denominator)
    return (all(row == supply_d for row in rows.values())
            and all(col == demand_d for col in cols.values()))
