"""Graph partitioning into federated parties.

The paper's protocol (§5.1): run the Louvain community-detection
algorithm [2] with a ``resolution`` parameter, then assign whole
communities to M parties.  Larger resolution → more, smaller communities
→ more fragmented parties (Figure 7 sweeps this).  We group communities
into exactly M parties by greedy size balancing, matching the paper's
fixed party counts {3, 5, 7, 9, 20, 50}.

A ``random_partition`` alternative (uniform node assignment) is provided
for the "Louvain effect vs federation effect" extension ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import networkx as nx
import numpy as np
import scipy.sparse as sp

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
    sub_adj = graph.adj[nodes][:, nodes].tocsr()
    return Graph(
        x=graph.x.to_scipy()[nodes],
        adj=sub_adj,
        y=graph.y[nodes].copy(),
        num_classes=graph.num_classes,
        train_mask=None if graph.train_mask is None else graph.train_mask[nodes].copy(),
        val_mask=None if graph.val_mask is None else graph.val_mask[nodes].copy(),
        test_mask=None if graph.test_mask is None else graph.test_mask[nodes].copy(),
        name=name or f"{graph.name}-sub",
    )


def _to_networkx(adj: sp.spmatrix) -> nx.Graph:
    """CSR → networkx (edges only; attributes are irrelevant to Louvain)."""
    coo = sp.coo_matrix(sp.triu(adj, k=1))
    g = nx.Graph()
    g.add_nodes_from(range(adj.shape[0]))
    g.add_edges_from(zip(coo.row.tolist(), coo.col.tolist()))
    return g


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
    communities are split by BFS-balanced halving until there are enough
    — this matches the paper's usage where M up to 50 exceeds the natural
    community count of the Coauthor graph at default resolution.
    """
    if num_parties < 1:
        raise ValueError("num_parties must be >= 1")
    if num_parties > graph.num_nodes:
        raise ValueError("more parties than nodes")
    nxg = _to_networkx(graph.adj)
    seed = int(rng.integers(0, 2**31 - 1))
    comms = nx.community.louvain_communities(nxg, resolution=resolution, seed=seed)
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
    parts, node_maps = [], []
    for p in range(num_parties):
        nodes = np.flatnonzero(assignment == p)
        parts.append(subgraph(graph, nodes, name=f"{graph.name}-rand{p}"))
        node_maps.append(nodes)
    return PartitionResult(parts=parts, node_maps=node_maps, num_communities=num_parties)
