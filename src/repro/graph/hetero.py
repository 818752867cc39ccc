"""Heterogeneous graphs: typed nodes and typed edges (the DGL heterograph
analogue), used by the PinSAGE recommendation workload."""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np
import scipy.sparse as sp

from ..tensor.ops.spmm import SparseTensor
from .graph import Graph

#: canonical edge type: (source node type, relation name, dest node type)
EdgeType = tuple[str, str, str]


class HeteroGraph:
    def __init__(
        self,
        num_nodes: dict[str, int],
        edges: dict[EdgeType, tuple[np.ndarray, np.ndarray]],
    ) -> None:
        self.num_nodes_per_type = dict(num_nodes)
        self.edges: dict[EdgeType, tuple[np.ndarray, np.ndarray]] = {}
        for etype, (src, dst) in edges.items():
            stype, _, dtype = etype
            if stype not in num_nodes or dtype not in num_nodes:
                raise KeyError(f"edge type {etype} references unknown node type")
            src = np.asarray(src, dtype=np.int64).reshape(-1)
            dst = np.asarray(dst, dtype=np.int64).reshape(-1)
            if src.size and src.max() >= num_nodes[stype]:
                raise ValueError(f"{etype}: src id out of range")
            if dst.size and dst.max() >= num_nodes[dtype]:
                raise ValueError(f"{etype}: dst id out of range")
            self.edges[etype] = (src, dst)
        self._adj_cache: dict[EdgeType, SparseTensor] = {}

    @property
    def node_types(self) -> list[str]:
        return list(self.num_nodes_per_type)

    @property
    def edge_types(self) -> list[EdgeType]:
        return list(self.edges)

    def num_nodes(self, ntype: str) -> int:
        return self.num_nodes_per_type[ntype]

    def num_edges(self, etype: EdgeType) -> int:
        return int(self.edges[etype][0].size)

    def adjacency(self, etype: EdgeType, norm: str = "none") -> SparseTensor:
        """dst-by-src adjacency of one edge type (rows aggregate in-edges)."""
        cached = self._adj_cache.get((etype, norm))
        if cached is not None:
            return cached
        stype, _, dtype = etype
        src, dst = self.edges[etype]
        adj = sp.coo_matrix(
            (np.ones(src.size, dtype=np.float32), (dst, src)),
            shape=(self.num_nodes_per_type[dtype], self.num_nodes_per_type[stype]),
        ).tocsr()
        if norm == "rw":
            deg = np.maximum(np.asarray(adj.sum(axis=1)).reshape(-1), 1.0)
            adj = sp.diags(1.0 / deg) @ adj
        result = SparseTensor(adj.tocsr())
        self._adj_cache[(etype, norm)] = result
        return result

    def bipartite_projection(self, via: EdgeType, back: EdgeType) -> Graph:
        """Homogeneous item-item graph through two-hop metapaths.

        PinSAGE trains on the item side of a user-item graph; neighbors are
        items co-interacted by the same users (item -via-> user -back-> item).
        """
        a = self.adjacency(via).scipy()
        b = self.adjacency(back).scipy()
        two_hop = (b @ a).tocoo()
        mask = two_hop.row != two_hop.col
        return Graph(
            two_hop.col[mask],
            two_hop.row[mask],
            num_nodes=b.shape[0],
            edge_weight=two_hop.data[mask],
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"HeteroGraph(nodes={self.num_nodes_per_type}, "
            f"edge_types={len(self.edges)})"
        )
