"""The homogeneous system on multiplicity deviations and the uniform-
distribution transport problem on consecutive levels of the Young graph.

The system attached to a shape lam has one equation per partition rho of
n-1 dominating bar(lam) and one unknown per partition mu of n dominating
lam, with a unit entry exactly when mu covers rho.  When mu -> bar(mu)
identifies unknowns with equations, the matrix is unitriangular along the
dominance order and the deviations must vanish.  ``statement1_check``
builds the system once, as sparse {column: 1} rows, and returns it in
one record with those verdicts.

The transport problem asks for a nonnegative kernel supported on covering
pairs that pushes the uniform distribution on level n-1 to the uniform
distribution on level n; it is decided exactly by integer max-flow on the
network scaled by p(n-1) * p(n).  One integer balance rule, `_balanced`,
checks both the arc flows and, through `verify_witness`, a witness of
Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import lcm
from typing import NamedTuple, Optional

from .errors import SelfCheckError
from .exactla import rank
# not used here: perfbench/tests/test_perfbench.py reaches younglab.linsys.kernel
from .exactla import kernel  # noqa: F401
from .partitions import (
    Partition,
    _predecessors,
    bar,
    check_degree,
    check_partition,
    dominance_upset,
    enumerate_partitions,
    successors,
)

__all__ = [
    "FlowInstance",
    "Statement1Report",
    "build_flow_instance",
    "polymorphism_feasibility",
    "statement1_check",
    "verify_witness",
]


class Statement1Report(NamedTuple):
    """The system of lam and what Statement 1 asks of it: rows rho over
    bar(lam), columns mu over lam, and the rows as sparse {column: 1}
    dicts, row rho holding column mu exactly when mu covers rho."""

    lam: Partition
    bar_bijective: bool
    square: bool
    kernel_dim: int
    unipotent: bool
    row_index: tuple[Partition, ...]
    col_index: tuple[Partition, ...]
    matrix: tuple[dict[int, int], ...]


def statement1_check(lam: Partition) -> Statement1Report:
    """Build the system of lam and inspect it: is mu -> bar(mu) a bijection
    onto the row set, and is the matrix square, unitriangular under that
    identification, and of zero kernel?

    The contract (verified across the sweep tests) is one-directional:
    bijective implies the other three.  Shapes whose index sets differ in
    size are reported as-is; their kernel dimension is experimental output.
    """
    lam = check_partition(lam, "lam")
    if sum(lam) < 2:
        raise ValueError("need a partition of n >= 2")
    check_degree(sum(lam))
    rows = tuple(dominance_upset(bar(lam)))
    cols = tuple(dominance_upset(lam))
    row_pos = {rho: i for i, rho in enumerate(rows)}
    matrix = tuple({} for _ in rows)
    images = []
    for j, mu in enumerate(cols):
        covered = _predecessors(mu)
        images.append(covered[0][0])  # bar(mu), the first pair's gamma
        for g, _ in covered:
            matrix[row_pos[g]][j] = 1
    bijective = len(set(images)) == len(images) and set(images) == set(rows)
    square = len(rows) == len(cols)
    kdim = len(cols) - rank(matrix)

    unipotent = False
    if bijective:
        # the column of mu has a 1 in the row of bar(mu) and no nonzero
        # entry in a later row
        at = [row_pos[image] for image in images]
        unipotent = (
            all(matrix[i].get(j) == 1 for j, i in enumerate(at))
            and all(i <= at[j] for i, row in enumerate(matrix) for j in row)
        )
    return Statement1Report(lam, bijective, square, kdim, unipotent, rows, cols, matrix)


class FlowInstance(NamedTuple):
    """Transport instance between consecutive levels of the Young graph."""

    n: int
    left: tuple[Partition, ...]
    right: tuple[Partition, ...]
    edges: tuple[tuple[Partition, Partition], ...]
    supply: Fraction  # per left node
    demand: Fraction  # per right node


def build_flow_instance(n: int) -> FlowInstance:
    """The covering pairs (gamma, mu) between levels n - 1 and n, by gamma
    in enumeration order and then by mu, with the uniform supply and demand."""
    return _flow_network(n)[0]


def _flow_network(n: int) -> tuple[FlowInstance, list[tuple[int, int]]]:
    """The instance of n and its edges as pairs of node ids (see
    `_node_ids`), built in one pass.  The degree is checked first."""
    n = check_degree(n)
    if n < 2:
        raise ValueError("need n >= 2")
    left = enumerate_partitions(n - 1)
    right = enumerate_partitions(n)
    right_id = {mu: j for j, mu in enumerate(right, 1 + len(left))}
    edges, pairs = [], []
    for u, gamma in enumerate(left, 1):
        for mu in successors(gamma):
            edges.append((gamma, mu))
            pairs.append((u, right_id[mu]))
    instance = FlowInstance(
        n, left, right, tuple(edges),
        Fraction(1, len(left)), Fraction(1, len(right)),
    )
    return instance, pairs


class _Dinic:
    """Max flow with exact integer capacities.

    Arcs live in flat arrays: arc e runs into head[e] with the residual
    capacity cap[e], and adj[u] lists the ids of the arcs out of u in the
    order they were added, the order a list of [head, residual, reverse
    index] arcs per node would have.  Arcs come in pairs, 2k forward and
    2k + 1 reverse (capacity 0), so the reverse of e is e ^ 1 and the flow
    on a forward arc is the residual of its reverse, cap[e ^ 1].
    `add_edges` adds a run of arcs of one capacity under consecutive ids.

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
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.head: list[int] = []
        self.cap: list[int] = []

    def add_edges(self, pairs, cap: int) -> range:
        """Add u -> v with capacity cap and its reverse for each pair
        (u, v) in turn; return the forward arc ids."""
        adj, head = self.adj, self.head
        first = e = len(head)
        for u, v in pairs:
            head += (v, u)
            adj[u].append(e)
            adj[v].append(e + 1)
            e += 2
        self.cap += (cap, 0) * ((e - first) // 2)
        return range(first, e, 2)

    def add_edge(self, u: int, v: int, cap: int) -> int:
        """Add the arc u -> v and its reverse; return the forward arc id."""
        return self.add_edges(((u, v),), cap)[0]

    def _levels(self, s: int, t: int) -> Optional[list[int]]:
        """Residual distances to t, by a BFS backward from t that stops once
        s is labelled; None when s cannot reach t.  Seen from adj[v], the
        arc e leads back to u = head[e], and u -> v is the arc e ^ 1."""
        adj, head, cap = self.adj, self.head, self.cap
        dist = [-1] * len(adj)
        dist[t] = 0
        queue = [t]
        for v in queue:
            d = dist[v] + 1
            for e in adj[v]:
                u = head[e]
                if dist[u] < 0 and cap[e ^ 1]:
                    dist[u] = d
                    if u == s:
                        return dist
                    queue.append(u)
        return None

    def max_flow(self, s: int, t: int) -> int:
        adj, head, cap = self.adj, self.head, self.cap
        flow = 0
        while (dist := self._levels(s, t)) is not None:
            it = [0] * len(adj)

            def push(u: int, limit: int) -> int:
                """Push up to `limit` from u to t along the arcs u -> v with
                dist[v] == dist[u] - 1; it[u] moves only past saturated or
                blocked arcs, and a node whose arcs are all spent leaves the
                phase.  Labels fall strictly along the path, so the call down
                an arc e of u neither reenters u nor changes cap[e]."""
                total = 0
                below = dist[u] - 1
                arcs = adj[u]
                for i in range(it[u], len(arcs)):
                    e = arcs[i]
                    c = cap[e]
                    if c:
                        v = head[e]
                        if dist[v] == below:
                            want = limit - total
                            if c < want:
                                want = c
                            pushed = want if v == t else push(v, want)
                            if pushed:
                                cap[e] = c - pushed
                                cap[e ^ 1] += pushed
                                total += pushed
                                if total == limit:
                                    it[u] = i
                                    return total
                dist[u] = -1  # blocked: no later arc of this phase may enter u
                return total

            flow += push(s, 1 << 62)
        return flow

    def reachable_in_residual(self, s: int) -> set[int]:
        adj, head, cap = self.adj, self.head, self.cap
        seen = {s}
        queue = [s]
        for u in queue:
            for e in adj[u]:
                v = head[e]
                if cap[e] and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


def polymorphism_feasibility(n: int) -> dict:
    """Decide whether the uniform distribution on level n-1 can be pushed
    to the uniform distribution on level n along covering pairs.

    Returns a report with an exact witness kernel when feasible, or an
    exact max-flow certificate (flow value plus a saturated cut) when not.
    A full flow is checked by `_balanced` on the integer arc flows; the
    witness maps each pair with flow f > 0 to f / (p(n-1) * p(n)), one
    Fraction per distinct f.
    """
    instance, pairs = _flow_network(n)
    p1, p2 = len(instance.left), len(instance.right)
    scale = p1 * p2
    source = 0
    sink = 1 + p1 + p2

    net = _Dinic(sink + 1)
    net.add_edges(zip(repeat(source), range(1, 1 + p1)), p2)
    arcs = net.add_edges(pairs, scale)
    net.add_edges(zip(range(1 + p1, sink), repeat(sink)), p1)

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
        flows = net.cap[arcs.start + 1:arcs.stop:2]  # cap[e ^ 1] for e in arcs
        if not _balanced(pairs, flows, p1, p2, p2, p1):
            raise SelfCheckError(f"flow witness for n={n} fails verification")
        value = {f: Fraction(f, scale) for f in set(flows) if f}
        report["witness"] = {
            edge: value[f] for edge, f in zip(instance.edges, flows) if f
        }
    else:
        # source side of a minimum cut certifies the upper bound exactly
        side = net.reachable_in_residual(source)
        cut_value = 0
        cut_edges: list[tuple] = []
        for u, g in enumerate(instance.left, 1):
            if u not in side:
                cut_value += p2
                cut_edges.append(("source", g))
        for edge, (u, v) in zip(instance.edges, pairs):
            if u in side and v not in side:
                cut_value += scale
                cut_edges.append(edge)
        for v, m in enumerate(instance.right, 1 + p1):
            if v in side:
                cut_value += p1
                cut_edges.append((m, "sink"))
        report["cut"] = {"value": cut_value, "edges": cut_edges}
        if cut_value != flow:
            raise SelfCheckError(f"cut value {cut_value} != max flow {flow} for n={n}")
    return report


def _node_ids(instance: FlowInstance) -> tuple[dict[Partition, int], dict[Partition, int]]:
    """Node ids 1..p1 for level n-1 and p1+1..p1+p2 for level n, in order;
    0 is the source and p1+p2+1 the sink."""
    p1 = len(instance.left)
    return ({g: 1 + i for i, g in enumerate(instance.left)},
            {m: 1 + p1 + j for j, m in enumerate(instance.right)})


def _balanced(pairs, flows, p1: int, p2: int, supply: int, demand: int) -> bool:
    """Every flow is nonnegative, and along the pairs (u, v) of node ids
    each node 1..p1 sends `supply` and each node p1+1..p1+p2 receives
    `demand`."""
    sums = [0] * (1 + p1 + p2)
    for (u, v), f in zip(pairs, flows):
        if f < 0:
            return False
        sums[u] += f
        sums[v] += f
    return sums[1:1 + p1] == [supply] * p1 and sums[1 + p1:] == [demand] * p2


def verify_witness(instance: FlowInstance, witness: dict) -> bool:
    """Exact check of a witness {(gamma, mu): Fraction}: every key is a
    covering pair, and over the lcm D of all denominators the numerators
    pass `_balanced` with the targets supply * D and demand * D."""
    allowed = set(instance.edges)
    if not allowed.issuperset(witness):
        return False
    supply, demand = instance.supply, instance.demand
    d = lcm(supply.denominator, demand.denominator,
            *{value.denominator for value in witness.values()})
    left_id, right_id = _node_ids(instance)
    pairs = [(left_id[g], right_id[m]) for g, m in witness]
    flows = [value.numerator * (d // value.denominator) for value in witness.values()]
    return _balanced(pairs, flows, len(instance.left), len(instance.right),
                     supply.numerator * (d // supply.denominator),
                     demand.numerator * (d // demand.denominator))
