"""Simple undirected graphs, conflict-free coloring verifiers, and brute-force oracles.

Colors are integers in ``{0, 1, ..., k}`` where 0 means "not colored".
"""

from __future__ import annotations

import random
from itertools import product
from typing import Iterable, Optional

from .errors import FormatError, InstanceTooLargeError

ORACLE_BUDGET = 10**8


class Graph:
    """Immutable simple undirected graph with 0-based vertex ids."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            norm.add((min(u, v), max(u, v)))
        self.n = n
        self.edges = frozenset(norm)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in sorted(norm):
            adj[u].append(v)
            adj[v].append(u)
        self.adj = tuple(tuple(sorted(ns)) for ns in adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class Coloring:
    """Per-vertex color assignment; 0 denotes an uncolored vertex."""

    __slots__ = ("k", "assignment")

    def __init__(self, k: int, assignment: Iterable[int]):
        if k < 1:
            raise ValueError("k must be positive")
        assignment = tuple(assignment)
        for c in assignment:
            if not (0 <= c <= k):
                raise ValueError(f"color {c} outside [0, {k}]")
        self.k = k
        self.assignment = assignment

    def __eq__(self, other):
        return (
            isinstance(other, Coloring)
            and self.k == other.k
            and self.assignment == other.assignment
        )

    def __repr__(self):
        return f"Coloring(k={self.k}, assignment={list(self.assignment)})"


def closed_neighborhood(g: Graph, v: int) -> set[int]:
    """Return N[v] = {v} union neighbors(v)."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    return {v, *g.adj[v]}


def _check_coloring(g: Graph, col: Coloring) -> None:
    if len(col.assignment) != g.n:
        raise ValueError("coloring length does not match vertex count")


def verify_conflict_free(g: Graph, col: Coloring) -> Optional[int]:
    """Check the conflict-free property; None if ok, else the smallest violating vertex.

    A vertex v is satisfied when some nonzero color is assigned to exactly one
    vertex of its closed neighborhood.
    """
    _check_coloring(g, col)
    a = col.assignment
    for v in range(g.n):
        counts: dict[int, int] = {}
        for u in (v, *g.adj[v]):
            c = a[u]
            if c != 0:
                counts[c] = counts.get(c, 0) + 1
        if not any(cnt == 1 for cnt in counts.values()):
            return v
    return None


def verify_strong_conflict_free(g: Graph, col: Coloring) -> Optional[int]:
    """Check the strong conflict-free property; None if ok, else the smallest violating vertex.

    A vertex v is satisfied when its closed neighborhood contains at least one
    colored vertex and all its colored vertices carry pairwise distinct colors.
    """
    _check_coloring(g, col)
    a = col.assignment
    for v in range(g.n):
        seen: set[int] = set()
        bad = False
        for u in (v, *g.adj[v]):
            c = a[u]
            if c != 0:
                if c in seen:
                    bad = True
                    break
                seen.add(c)
        if bad or not seen:
            return v
    return None


def degeneracy(g: Graph) -> tuple[int, list[int]]:
    """Degeneracy and its elimination order.

    Repeatedly removes a minimum-degree vertex (smallest id on ties); the
    degeneracy is the largest degree seen at removal time.
    """
    remaining = set(range(g.n))
    deg = [len(g.adj[v]) for v in range(g.n)]
    order = []
    d = 0
    for _ in range(g.n):
        v = min(remaining, key=lambda u: (deg[u], u))
        d = max(d, deg[v])
        order.append(v)
        remaining.discard(v)
        for u in g.adj[v]:
            if u in remaining:
                deg[u] -= 1
    return d, order


def greedy_color_bound(g: Graph) -> Coloring:
    """Proper coloring of all vertices with at most degeneracy+1 colors.

    Colors vertices along the reverse elimination order, giving each the
    smallest color unused among already-colored neighbors.  Any proper
    coloring is conflict-free: each vertex's own color appears exactly once
    in its closed neighborhood.  It is not strong conflict-free in general
    (two neighbors of a vertex may share a color).
    """
    d, order = degeneracy(g)
    assignment = [0] * g.n
    for v in reversed(order):
        used = {assignment[u] for u in g.adj[v]}
        c = 1
        while c in used:
            c += 1
        assignment[v] = c
    k = max(assignment) if g.n else 1
    return Coloring(max(k, 1), assignment)


def _oracle(g: Graph, k: int, verifier) -> Optional[Coloring]:
    if k < 1:
        raise ValueError("k must be positive")
    if (k + 1) ** g.n > ORACLE_BUDGET:
        raise InstanceTooLargeError(
            f"(k+1)^n = {(k + 1) ** g.n} exceeds the enumeration budget {ORACLE_BUDGET}"
        )
    for assignment in product(range(k + 1), repeat=g.n):
        col = Coloring(k, assignment)
        if verifier(g, col) is None:
            return col
    return None


def oracle_cfc(g: Graph, k: int) -> Optional[Coloring]:
    """First conflict-free k-coloring in lexicographic assignment order, if any."""
    return _oracle(g, k, verify_conflict_free)


def oracle_scfc(g: Graph, k: int) -> Optional[Coloring]:
    """First strong conflict-free k-coloring in lexicographic assignment order, if any."""
    return _oracle(g, k, verify_strong_conflict_free)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Deterministic Erdos-Renyi-style simple graph for a fixed seed."""
    if not (0 <= p <= 1):
        raise ValueError("edge probability must be in [0, 1]")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format: ``p <n> <m>`` then ``e <u> <v>`` (1-based)."""
    n = m = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate header")
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: malformed header {line!r}")
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer header fields") from None
        elif parts[0] == "e":
            if n is None:
                raise FormatError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: malformed edge {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer edge fields") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise FormatError(f"line {lineno}: edge ({u}, {v}) out of range")
            edges.append((u - 1, v - 1))
        else:
            raise FormatError(f"line {lineno}: unknown line {line!r}")
    if n is None:
        raise FormatError("missing header line")
    if m != len(edges):
        raise FormatError(f"header declares {m} edges, found {len(edges)}")
    return Graph(n, edges)


def write_graph(g: Graph) -> str:
    lines = [f"p {g.n} {g.m}"]
    for u, v in sorted(g.edges):
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"
