"""Directed-graph statements and Hamiltonian-cycle witnesses.

The proof systems here speak directed Hamiltonicity natively; no NP
reductions are shipped. The fixed instances the protocols, attacks and
experiments run on are built here in code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Digraph:
    """n-vertex directed graph, no self-loops."""

    n: int
    adjacency: np.ndarray  # (n, n) bool, adjacency[u, v] = edge u -> v

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.shape != (self.n, self.n):
            raise ValueError("adjacency must be n x n")
        if np.any(np.diag(adj)):
            raise ValueError("self-loops are not allowed")
        object.__setattr__(self, "adjacency", adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u, v])

    def digest(self) -> bytes:
        """n as one byte, then the packed adjacency bits; needs n < 256."""
        if self.n >= 256:
            raise ValueError(f"Digraph.digest needs n < 256 (n is one byte), got n = {self.n}")
        return bytes([self.n]) + np.packbits(self.adjacency.flatten()).tobytes()

    @classmethod
    def from_edges(cls, n: int, edges) -> "Digraph":
        adj = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            if u == v:
                raise ValueError("self-loops are not allowed")
            adj[u, v] = True
        return cls(n, adj)


@dataclass(frozen=True)
class CycleWitness:
    """One n-cycle given as the vertex visit order (v_0, ..., v_{n-1})."""

    order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(int(v) for v in self.order))

    def edges(self) -> list[tuple[int, int]]:
        n = len(self.order)
        return [(self.order[i], self.order[(i + 1) % n]) for i in range(n)]

    def valid_for(self, graph: Digraph) -> bool:
        if sorted(self.order) != list(range(graph.n)):
            return False
        return all(graph.has_edge(u, v) for u, v in self.edges())


def require_witness(graph: Digraph, witness: CycleWitness) -> None:
    if not witness.valid_for(graph):
        raise ValueError("witness is not a Hamiltonian cycle of the instance")


# -- fixed instances used across the experiments -----------------------


def complete_digraph(n: int) -> Digraph:
    adj = ~np.eye(n, dtype=bool)
    return Digraph(n, adj)


def canonical_cycle(n: int) -> CycleWitness:
    return CycleWitness(tuple(range(n)))


def non_hamiltonian_triangle() -> Digraph:
    """Three vertices, edges {0->1, 1->0, 2->1}: vertex 2 has no in-path
    back, so no Hamiltonian cycle exists."""
    return Digraph.from_edges(3, [(0, 1), (1, 0), (2, 1)])


def two_cycle_pair() -> tuple[Digraph, CycleWitness]:
    """Smallest Hamiltonian instance: 2 vertices with both arcs."""
    g = Digraph.from_edges(2, [(0, 1), (1, 0)])
    return g, CycleWitness((0, 1))


def triangle_both_cycles() -> tuple[Digraph, CycleWitness, CycleWitness]:
    """K3 with its two distinct directed Hamiltonian cycles."""
    g = complete_digraph(3)
    return g, CycleWitness((0, 1, 2)), CycleWitness((0, 2, 1))


__all__ = [
    "CycleWitness",
    "Digraph",
    "canonical_cycle",
    "complete_digraph",
    "non_hamiltonian_triangle",
    "require_witness",
    "triangle_both_cycles",
    "two_cycle_pair",
]
