"""Graph partitioning into federated parties.

The paper's protocol (§5.1): run the Louvain community-detection
algorithm [2] with a ``resolution`` parameter, then assign whole
communities to M parties.  Larger resolution → more, smaller communities
→ more fragmented parties (Figure 7 sweeps this).  We group communities
into exactly M parties by greedy size balancing, matching the paper's
fixed party counts {3, 5, 7, 9, 20, 50}.

Louvain runs on the adjacency's CSR arrays.  :func:`louvain_communities`
returns exactly what networkx 3.6.1's
``louvain_communities(G, resolution=resolution, seed=seed)`` returns for
the unweighted graph ``G`` built from ``sp.triu(adj, 1)``'s COO stream:
the same sets, in the same list order, each iterating in the same order
(the split path's ``rng.permutation`` sees that order).  Per-level
adjacency building, community-graph aggregation and modularity are
NumPy; the local-moving sweep and the set bookkeeping are Python, with
networkx's moves and set operations in networkx's order, because set
iteration order depends on the exact history of inserts and removals.
The sweep skips a visit that would leave node ``u`` where it is, which
changes nothing (``Stot`` is restored, no set is touched).  It knows one
would when ``u`` stayed at its last visit and since then no candidate
community of that visit (its neighbours', its own included) lost a node
and its own gained none: no neighbour moved, ``u``'s own gain is bitwise
the same, and every other candidate's gain can only have fallen, a gain
being monotone in ``Stot`` under IEEE rounding at a resolution >= 0 (a
negative one skips nothing).  A visit it cannot skip reuses the last
stay's neighbour weights when no neighbour of ``u`` has moved since:
each move stamps its node's neighbours with the move clock.  Neighbour
weights are counted as integers, which equal networkx's float sums.
networkx is not imported; the test suite compares against it.

A ``random_partition`` alternative (uniform node assignment) is provided
for the "Louvain effect vs federation effect" extension ablation.
"""

from __future__ import annotations

import gc
import random
from collections import _count_elements  # Counter's C counting loop
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.graphs.csr import unique, upper_triangle
from repro.graphs.data import Graph


@dataclass
class PartitionResult:
    """Outcome of cutting a global graph into party subgraphs.

    Attributes
    ----------
    parts:
        List of party :class:`Graph` objects (masks restricted).
    node_maps:
        For each party, the array of *global* node indices of its nodes —
        needed to evaluate global metrics and reassemble predictions.
    num_communities:
        How many Louvain communities were found before grouping.
    """

    parts: List[Graph]
    node_maps: List[np.ndarray]
    num_communities: int

    @property
    def num_parties(self) -> int:
        return len(self.parts)

    def sizes(self) -> List[int]:
        return [p.num_nodes for p in self.parts]


def subgraph(graph: Graph, nodes: np.ndarray, name: Optional[str] = None) -> Graph:
    """Induced subgraph on ``nodes`` (global masks sliced through).

    Cross-party edges are dropped — exactly the information loss
    federated subgraph learning suffers from and FedSage+ tries to
    repair with generated neighbors.
    """
    nodes = np.asarray(nodes)
    if len(nodes) == 0:
        raise ValueError("cannot build an empty subgraph")
    if len(unique(nodes)) != len(nodes):
        raise ValueError("subgraph nodes must be distinct")
    return Graph(
        x=graph.x.take(nodes),
        adj=graph.adj.take(nodes, nodes),
        y=graph.y[nodes].copy(),
        num_classes=graph.num_classes,
        train_mask=None if graph.train_mask is None else graph.train_mask[nodes].copy(),
        val_mask=None if graph.val_mask is None else graph.val_mask[nodes].copy(),
        test_mask=None if graph.test_mask is None else graph.test_mask[nodes].copy(),
        name=name or f"{graph.name}-sub",
    )


# networkx's default modularity-gain threshold between levels.
_THRESHOLD = 0.0000001

# One level's graph as ``(row, nbr, weight)`` entries sorted by row; each
# row lists the node's neighbours (self-loop included) in networkx's
# adjacency-dict order.
_Level = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _adjacency(src: np.ndarray, dst: np.ndarray, wt: np.ndarray, n: int) -> _Level:
    """Adjacency of an ``nx.Graph`` on nodes ``0..n-1`` grown edge by edge.

    ``add_edge(a, b)`` appends ``b`` to ``a``'s neighbour dict and then
    ``a`` to ``b``'s, unless already there; both directions share one
    weight, summed over repeats.  Rows come out in order of first
    appearance.
    """
    t = len(src)
    ev_src = np.empty(2 * t, dtype=np.int64)
    ev_dst = np.empty(2 * t, dtype=np.int64)
    ev_src[0::2], ev_src[1::2] = src, dst
    ev_dst[0::2], ev_dst[1::2] = dst, src
    keep = np.ones(2 * t, dtype=bool)
    keep[1::2] = src != dst  # a self-loop is one entry
    key = ev_src[keep] * n + ev_dst[keep]
    # A stable sort groups repeats with the first event of each in front.
    order = np.argsort(key, kind="stable")
    start = np.flatnonzero(np.diff(key[order], prepend=-1))
    keys, first = key[order[start]], order[start]
    weight = np.add.reduceat(np.repeat(wt, 2)[keep][order], start)
    rows = keys // n
    order = np.argsort(rows * len(key) + first)
    return rows[order], (keys % n)[order], weight[order]


def _edges(level: _Level) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``G.edges(data=True)``: each edge once, from its lower endpoint."""
    rows, nbr, wt = level
    up = nbr >= rows
    return rows[up], nbr[up], wt[up]


def _degrees(level: _Level, n: int) -> np.ndarray:
    """Weighted degrees; a self-loop counts twice."""
    rows, nbr, wt = level
    loop = nbr == rows
    deg = np.bincount(rows, weights=wt, minlength=n) + np.bincount(
        rows[loop], weights=wt[loop], minlength=n
    )
    return deg.astype(np.int64)


def _modularity(level: _Level, degrees: np.ndarray, com: np.ndarray, resolution: float) -> float:
    """``nx.community.modularity`` of the partition ``node -> com[node]``.

    ``L_c`` counts each intra-community edge once (self-loops once); the
    per-community terms are summed left to right by the builtin ``sum``,
    exactly as networkx does.
    """
    src, dst, wt = _edges(level)
    ncom = int(com.max()) + 1
    inside = com[src] == com[dst]
    l_c = np.bincount(com[src[inside]], weights=wt[inside], minlength=ncom).astype(np.int64)
    d_c = np.bincount(com, weights=degrees, minlength=ncom).astype(np.int64)
    deg_sum = int(degrees.sum())
    m = deg_sum / 2
    norm = 1 / deg_sum**2
    return sum((l_c / m - resolution * d_c * d_c * norm).tolist())


def _one_level(
    level: _Level,
    degrees: np.ndarray,
    m: float,
    partition: List[Set[int]],
    members: List[Set[int]],
    resolution: float,
    rand: random.Random,
) -> Tuple[List[Set[int]], List[Set[int]], List[int], bool]:
    """networkx's ``_one_level``: move nodes while modularity improves.

    ``members[u]`` is the set of original nodes behind node ``u``.
    Returns the non-empty ``partition`` and inner-partition sets, the
    final ``node2com`` and whether any node moved.
    """
    rows, nbr, wt = level
    n = len(degrees)
    other = nbr != rows
    # Each neighbour repeated by its integer weight: the count sums exactly
    # what networkx's float sums add, in first-appearance order.
    reps = np.repeat(nbr[other], wt[other]).tolist()
    ptr = np.cumsum(np.bincount(rows[other], wt[other], minlength=n).astype(np.int64)).tolist()
    nbrs = [reps[lo:hi] for lo, hi in zip([0] + ptr, ptr)]
    deg = degrees.tolist()
    stot = list(deg)
    node2com = list(range(n))
    com_of = node2com.__getitem__
    inner = [{u} for u in range(n)]
    two_m2 = 2 * m**2
    # Move clock; per community the clocks of its last gain and loss of a
    # node; per node the clock of its neighbours' last move, and the clock
    # (-1: none), candidates and their neighbour weights of its last stay.
    clock = 0
    gained, lost, near = [0] * n, [0] * n, [0] * n
    lost_at = lost.__getitem__
    stay_at, stay_cands, stay_weights = [-1] * n, [None] * n, [None] * n
    rand_nodes = list(range(n))
    rand.shuffle(rand_nodes)
    nb_moves = 1
    improvement = False
    while nb_moves > 0:
        nb_moves = 0
        for u in rand_nodes:
            t = stay_at[u]
            best_com = old = node2com[u]
            if t >= 0:
                cands = stay_cands[u]
                if gained[old] <= t and max(map(lost_at, cands)) <= t:
                    continue
            if near[u] > t:
                weights2com = {}
                _count_elements(weights2com, map(com_of, nbrs[u]))
                # The own community joins the candidates last, at weight 0,
                # when no neighbour is in it (networkx's defaultdict lookup).
                own = weights2com.setdefault(old, 0)
                cands = None
            else:  # no neighbour moved since the stay: its weights hold
                weights = stay_weights[u]
                own = weights[cands.index(old)]
            best_mod = 0
            degree = deg[u]
            stot[old] -= degree
            remove_cost = -own / m + resolution * (stot[old] * degree) / two_m2
            for c, w in weights2com.items() if cands is None else zip(cands, weights):
                gain = remove_cost + w / m - resolution * (stot[c] * degree) / two_m2
                if gain > best_mod:
                    best_mod = gain
                    best_com = c
            stot[best_com] += degree
            if best_com != old:
                com = members[u]
                partition[old].difference_update(com)
                inner[old].remove(u)
                partition[best_com].update(com)
                inner[best_com].add(u)
                improvement = True
                nb_moves += 1
                node2com[u] = best_com
                clock += 1
                lost[old] = gained[best_com] = clock
                for v in nbrs[u]:
                    near[v] = clock
                stay_at[u] = -1
            elif resolution >= 0:
                if cands is None:
                    cands, weights = list(weights2com), list(weights2com.values())
                stay_at[u], stay_cands[u], stay_weights[u] = clock, cands, weights
    partition = list(filter(len, partition))
    inner = list(filter(len, inner))
    return partition, inner, node2com, improvement


def louvain_communities(adj, resolution: float = 1.0, seed: int = 0) -> List[Set[int]]:
    """Louvain communities of the unweighted graph ``sp.triu(adj, 1)``, for
    a CSRMatrix or scipy ``adj`` read as stored (duplicates included).

    Equal, set iteration order included, to networkx 3.6.1's
    ``louvain_communities`` on that graph with the same ``resolution``
    and integer ``seed`` (see the module docstring).

    The cyclic garbage collector is paused for the call and then put
    back as it was: the sweep allocates tens of thousands of dicts, lists
    and sets but builds no reference cycle, so a collection inside it (a
    generation-2 pass took about 18 ms) frees nothing.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _louvain(adj, resolution, seed)
    finally:
        if was_enabled:
            gc.enable()


def _louvain(adj, resolution: float, seed: int) -> List[Set[int]]:
    n = adj.shape[0]
    src, dst = upper_triangle(adj)
    # The graph G grown from triu's stream, then the weighted copy that
    # networkx's louvain_partitions rebuilds from G.edges.  A stream of
    # distinct pairs in row-major order (a canonical CSR's) is G.edges.
    key = src.astype(np.int64) * n + dst
    if np.any(key[1:] <= key[:-1]):
        src, dst, _ = _edges(_adjacency(src, dst, np.ones(len(src), dtype=np.int64), n))
    if len(src) == 0:
        return [{u} for u in range(n)]
    level = _adjacency(src, dst, np.ones(len(src), dtype=np.int64), n)
    degrees = _degrees(level, n)
    m = int(degrees.sum()) / 2
    mod = _modularity(level, degrees, np.arange(n), resolution)
    rand = random.Random(seed)
    partition = [{u} for u in range(n)]
    members = [{u} for u in range(n)]
    partition, inner, node2com, _ = _one_level(
        level, degrees, m, partition, members, resolution, rand
    )
    while True:
        result = [s.copy() for s in partition]
        # Filtering empties keeps community order: renumber by rank.
        n2c = np.asarray(node2com)
        rank = np.cumsum(np.bincount(n2c, minlength=len(node2com)) > 0) - 1
        com = rank[n2c]
        new_mod = _modularity(level, degrees, com, resolution)
        if new_mod - mod <= _THRESHOLD:
            return result
        mod = new_mod
        # _gen_graph: supernode i holds the members of inner[i]'s nodes.
        new_members = []
        for part in inner:
            nodes: Set[int] = set()
            for node in part:
                nodes.update(members[node])
            new_members.append(nodes)
        members = new_members
        src, dst, wt = _edges(level)
        level = _adjacency(com[src], com[dst], wt, len(inner))
        degrees = _degrees(level, len(inner))
        partition, inner, node2com, improvement = _one_level(
            level, degrees, m, partition, members, resolution, rand
        )
        if not improvement:
            return result


def _group_communities(
    communities: List[np.ndarray], num_parties: int, rng: np.random.Generator
) -> List[np.ndarray]:
    """Greedy size-balanced assignment of communities to parties.

    Sort communities by size descending, always give the next one to the
    currently-smallest party — the classic LPT heuristic.  Shuffling
    equal-size ties with ``rng`` keeps repeated runs diverse.
    """
    order = sorted(range(len(communities)), key=lambda i: (-len(communities[i]), rng.random()))
    buckets: List[List[np.ndarray]] = [[] for _ in range(num_parties)]
    loads = np.zeros(num_parties, dtype=int)
    for i in order:
        j = int(np.argmin(loads))
        buckets[j].append(communities[i])
        loads[j] += len(communities[i])
    out = []
    for b in buckets:
        if b:
            out.append(np.sort(np.concatenate(b)))
        else:
            out.append(np.empty(0, dtype=int))
    return out


def louvain_partition(
    graph: Graph,
    num_parties: int,
    rng: np.random.Generator,
    resolution: float = 1.0,
) -> PartitionResult:
    """Cut ``graph`` into ``num_parties`` subgraphs via Louvain communities.

    When Louvain yields fewer communities than parties, the largest
    community is split in two until there are enough: its nodes are
    shuffled with ``rng.permutation`` and cut into halves of sizes
    ``⌊k/2⌋`` and ``⌈k/2⌉``, with no regard to edges.  This matches the
    paper's usage, where M up to 50 exceeds the natural community count
    of the Coauthor graph at default resolution.
    """
    if num_parties < 1:
        raise ValueError("num_parties must be >= 1")
    if num_parties > graph.num_nodes:
        raise ValueError("more parties than nodes")
    seed = int(rng.integers(0, 2**31 - 1))
    comms = louvain_communities(graph.adj, resolution=resolution, seed=seed)
    communities = [np.fromiter(c, dtype=int) for c in comms]
    num_communities = len(communities)

    # Ensure at least num_parties communities by splitting the largest.
    while len(communities) < num_parties:
        communities.sort(key=len)
        big = communities.pop()
        if len(big) < 2:
            raise ValueError("graph too small to split into that many parties")
        half = len(big) // 2
        shuffled = rng.permutation(big)
        communities.extend([np.sort(shuffled[:half]), np.sort(shuffled[half:])])

    groups = _group_communities(communities, num_parties, rng)
    # Guard: greedy balancing cannot empty a party when #communities >= M.
    parts = []
    node_maps = []
    for i, nodes in enumerate(groups):
        if len(nodes) == 0:
            raise RuntimeError("internal error: empty party after grouping")
        parts.append(subgraph(graph, nodes, name=f"{graph.name}-party{i}"))
        node_maps.append(nodes)
    return PartitionResult(parts=parts, node_maps=node_maps, num_communities=num_communities)


def random_partition(
    graph: Graph, num_parties: int, rng: np.random.Generator
) -> PartitionResult:
    """Uniform random node assignment (ablation partitioner)."""
    if num_parties < 1 or num_parties > graph.num_nodes:
        raise ValueError("invalid num_parties")
    assignment = rng.integers(0, num_parties, graph.num_nodes)
    # Ensure no party is empty.
    for p in range(num_parties):
        if not np.any(assignment == p):
            assignment[rng.integers(0, graph.num_nodes)] = p
    # That pass can take a party's last node; refill from the largest
    # party, which holds at least two nodes while any party is empty.
    counts = np.bincount(assignment, minlength=num_parties)
    for p in np.flatnonzero(counts == 0):
        donor = int(np.argmax(counts))
        members = np.flatnonzero(assignment == donor)
        assignment[members[rng.integers(0, len(members))]] = p
        counts[donor] -= 1
        counts[p] = 1
    parts, node_maps = [], []
    for p in range(num_parties):
        nodes = np.flatnonzero(assignment == p)
        parts.append(subgraph(graph, nodes, name=f"{graph.name}-rand{p}"))
        node_maps.append(nodes)
    return PartitionResult(parts=parts, node_maps=node_maps, num_communities=num_parties)
