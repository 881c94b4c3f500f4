"""Tree decompositions: min-fill heuristic, nicification, validation, exact treewidth.

The nicification places every introduce-edge node immediately below the
(unique) forget of the edge's first-forgotten endpoint.  With that rule, no
edge with both endpoints inside a join bag is ever introduced below the join,
so join bags induce independent sets in the partial graphs -- the property
both coloring recurrences rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import InstanceTooLargeError
from .graph import Graph

LEAF = "leaf"
INTRODUCE = "introduce"
INTRODUCE_EDGE = "introduce_edge"
FORGET = "forget"
JOIN = "join"


@dataclass(frozen=True)
class TreeDecomposition:
    """Unrooted tree decomposition: per-node bags plus tree adjacency."""

    bags: tuple[tuple[int, ...], ...]
    tree_edges: frozenset[tuple[int, int]]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=1) - 1


@dataclass
class NiceNode:
    kind: str
    bag: tuple[int, ...]
    children: list[int] = field(default_factory=list)
    vertex: Optional[int] = None  # introduce / forget payload
    edge: Optional[tuple[int, int]] = None  # introduce_edge payload


@dataclass
class NiceTreeDecomposition:
    """Rooted nice tree decomposition; ``nodes[root]`` has an empty bag."""

    nodes: list[NiceNode]
    root: int

    @property
    def width(self) -> int:
        return max((len(nd.bag) for nd in self.nodes), default=1) - 1

    def postorder(self) -> list[int]:
        order = []
        stack = [(self.root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
            else:
                stack.append((node, True))
                for ch in self.nodes[node].children:
                    stack.append((ch, False))
        return order


def min_fill_decomposition(g: Graph) -> TreeDecomposition:
    """Tree decomposition from a min-fill elimination ordering (clique-tree style).

    Each step eliminates the vertex adding the fewest fill edges (ties:
    degree, then id); its bag is the vertex with its neighbors at that moment.
    """
    if g.n == 0:
        return TreeDecomposition(((),), frozenset())
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    order = []
    bags = []
    later = []  # for each node, the neighbors its vertex had when eliminated
    while adj:
        best = None
        best_key = None
        for v, ns in adj.items():
            nl = list(ns)
            fill = 0
            for i in range(len(nl)):
                for j in range(i + 1, len(nl)):
                    if nl[j] not in adj[nl[i]]:
                        fill += 1
            key = (fill, len(ns), v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        ns = adj.pop(best)
        order.append(best)
        bags.append(tuple(sorted({best, *ns})))
        later.append(ns)
        for a in ns:
            adj[a].discard(best)
        nl = list(ns)
        for i in range(len(nl)):
            for j in range(i + 1, len(nl)):
                adj[nl[i]].add(nl[j])
                adj[nl[j]].add(nl[i])
    pos = {v: i for i, v in enumerate(order)}
    tree_edges = set()
    for i, ns in enumerate(later):
        # a bag hangs below the bag of its earliest-eliminated later neighbor
        h = min((pos[u] for u in ns), default=None)
        if h is not None:
            tree_edges.add((min(i, h), max(i, h)))
        elif i + 1 < len(bags):
            tree_edges.add((i, i + 1))
    return TreeDecomposition(tuple(bags), frozenset(tree_edges))


def _rooted(td: TreeDecomposition) -> Optional[tuple[list[int], list[int]]]:
    """Each bag's parent (-1 for bag 0, the root) and a DFS order listing bags before children.

    Children go in decreasing index order, so the reversed order is a postorder with
    children in increasing order.  None unless the tree edges form one tree over all bags.
    """
    n = len(td.bags)
    if n == 0 or len(td.tree_edges) != n - 1 or not all(0 <= x < n for e in td.tree_edges for x in e):
        return None
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for a, b in td.tree_edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    parent = [-1] + [None] * (n - 1)
    order, stack = [], [0]
    while stack:
        i = stack.pop()
        order.append(i)
        for j in sorted(nbrs[i]):
            if parent[j] is None:
                parent[j] = i
                stack.append(j)
    return (parent, order) if len(order) == n else None


def validate(g: Graph, td: TreeDecomposition) -> Optional[tuple[str, object]]:
    """Check the tree axiom (witness: the bag count) and the three decomposition axioms; None if ok."""
    bag_sets = [set(bag) for bag in td.bags] + [set()]  # sentinel at -1, above the root
    holders: dict[int, list[int]] = {}
    for i, bag in enumerate(bag_sets):
        for v in bag:
            holders.setdefault(v, []).append(i)
    for v in range(g.n):
        if v not in holders:
            return ("vertex-coverage", v)
    for u, v in sorted(g.edges):
        if not any(u in bag_sets[i] and v in bag_sets[i] for i in min(holders[u], holders[v], key=len)):
            return ("edge-coverage", (u, v))
    rooted = _rooted(td)
    if rooted is None:
        return ("tree", len(td.bags))
    parent = rooted[0]
    # connectivity: the bags holding v form a subtree iff exactly one has a parent bag without v
    for v in range(g.n):
        if sum(1 for i in holders[v] if v not in bag_sets[parent[i]]) != 1:
            return ("connectivity", v)
    return None


class _NiceBuilder:
    def __init__(self, g: Graph):
        self.g = g
        self.nodes: list[NiceNode] = []
        self.introduced: set[tuple[int, int]] = set()

    def add(self, node: NiceNode) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def intro_chain(self, below: int, below_bag: tuple[int, ...], target: set[int]) -> tuple[int, tuple[int, ...]]:
        """Introduce the vertices of target missing from below_bag, in sorted order."""
        cur, bag = below, set(below_bag)
        for v in sorted(target - bag):
            bag.add(v)
            cur = self.add(NiceNode(INTRODUCE, tuple(sorted(bag)), [cur], vertex=v))
        return cur, tuple(sorted(bag))

    def forget_chain(self, below: int, below_bag: tuple[int, ...], target: set[int]) -> tuple[int, tuple[int, ...]]:
        """Forget the vertices of below_bag missing from target, edges introduced first."""
        cur, bag = below, set(below_bag)
        for v in sorted(bag - target):
            for u in self.g.adj[v]:
                e = (min(u, v), max(u, v))
                if u in bag and e not in self.introduced:
                    self.introduced.add(e)
                    cur = self.add(NiceNode(INTRODUCE_EDGE, tuple(sorted(bag)), [cur], edge=e))
            bag.discard(v)
            cur = self.add(NiceNode(FORGET, tuple(sorted(bag)), [cur], vertex=v))
        return cur, tuple(sorted(bag))


def make_nice(g: Graph, td: TreeDecomposition) -> NiceTreeDecomposition:
    """Convert a valid decomposition into a nice one rooted at an empty bag.

    Bags are built in postorder from bag 0, each with its chains up to its parent bag.
    """
    verdict = validate(g, td)
    if verdict is not None:
        raise ValueError(f"invalid tree decomposition: {verdict[0]} (witness {verdict[1]})")
    parent, order = _rooted(td)
    builder = _NiceBuilder(g)
    targets = [set(bag) for bag in td.bags] + [set()]  # sentinel empty bag above the root
    branches: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in targets]
    for i in reversed(order):
        if branches[i]:
            top, top_bag = branches[i][0]
            for nxt, _ in branches[i][1:]:
                top = builder.add(NiceNode(JOIN, top_bag, [top, nxt]))
        else:
            top, top_bag = builder.intro_chain(builder.add(NiceNode(LEAF, ())), (), targets[i])
        top, top_bag = builder.forget_chain(top, top_bag, targets[parent[i]])
        branches[parent[i]].append(builder.intro_chain(top, top_bag, targets[parent[i]]))
    return NiceTreeDecomposition(builder.nodes, branches[-1][0][0])


def validate_nice(g: Graph, ntd: NiceTreeDecomposition) -> Optional[tuple[str, object]]:
    """Check all structural invariants of a nice decomposition; None if ok."""
    nodes = ntd.nodes
    if nodes[ntd.root].bag:
        return ("root-bag", ntd.root)
    edge_count: dict[tuple[int, int], int] = {}
    forget_count: dict[int, int] = {}
    for i in ntd.postorder():
        nd = nodes[i]
        kids = [nodes[c] for c in nd.children]
        if nd.kind == LEAF:
            if kids or nd.bag:
                return ("leaf-shape", i)
        elif nd.kind == INTRODUCE:
            if len(kids) != 1 or nd.vertex in kids[0].bag or set(nd.bag) != set(kids[0].bag) | {nd.vertex}:
                return ("introduce-shape", i)
        elif nd.kind == FORGET:
            if len(kids) != 1 or nd.vertex not in kids[0].bag or set(nd.bag) != set(kids[0].bag) - {nd.vertex}:
                return ("forget-shape", i)
            forget_count[nd.vertex] = forget_count.get(nd.vertex, 0) + 1
        elif nd.kind == INTRODUCE_EDGE:
            u, v = nd.edge
            if len(kids) != 1 or nd.bag != kids[0].bag or u not in nd.bag or v not in nd.bag:
                return ("introduce-edge-shape", i)
            if not g.has_edge(u, v):
                return ("introduce-edge-unknown", nd.edge)
            edge_count[nd.edge] = edge_count.get(nd.edge, 0) + 1
        elif nd.kind == JOIN:
            if len(kids) != 2 or kids[0].bag != nd.bag or kids[1].bag != nd.bag:
                return ("join-shape", i)
        else:
            return ("unknown-kind", nd.kind)
    for e in sorted(g.edges):
        if edge_count.get(e, 0) != 1:
            return ("edge-multiplicity", e)
    for e in edge_count:
        if e not in g.edges:
            return ("edge-multiplicity", e)
    for v, cnt in forget_count.items():
        if cnt != 1:
            return ("forget-multiplicity", v)
    for v in range(g.n):
        if v not in forget_count:
            return ("vertex-coverage", v)
    # join-independence: no edge within a join bag introduced in its subtree
    intro_below: dict[int, set[tuple[int, int]]] = {}
    for i in ntd.postorder():
        nd = nodes[i]
        acc: set[tuple[int, int]] = set()
        for c in nd.children:
            acc |= intro_below[c]
        if nd.kind == INTRODUCE_EDGE:
            acc.add(nd.edge)
        intro_below[i] = acc
        if nd.kind == JOIN:
            bag = set(nd.bag)
            for u, v in acc:
                if u in bag and v in bag:
                    return ("join-independence", (i, (u, v)))
    return None


def dump_nice(ntd: NiceTreeDecomposition) -> str:
    """One node per line, for golden tests and debugging."""
    lines = []
    for i, nd in enumerate(ntd.nodes):
        if nd.kind in (INTRODUCE, FORGET):
            payload = str(nd.vertex)
        elif nd.kind == INTRODUCE_EDGE:
            payload = f"{nd.edge[0]}-{nd.edge[1]}"
        else:
            payload = "-"
        children = ",".join(str(c) for c in nd.children)
        bag = ",".join(str(v) for v in nd.bag)
        lines.append(f"node {i} {nd.kind} {payload} children={children} bag={bag}")
    return "\n".join(lines) + "\n"


def exact_treewidth(g: Graph) -> int:
    """Exact treewidth via dynamic programming over vertex subsets (n <= 15)."""
    n = g.n
    if n > 15:
        raise InstanceTooLargeError(f"exact treewidth limited to n <= 15, got {n}")
    if n == 0:
        return 0
    adj_mask = [0] * n
    for u, v in g.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    full = (1 << n) - 1

    def q(rmask: int, v: int) -> int:
        # neighbors of v's component in the graph induced on R + {v}, outside it
        allowed = rmask | (1 << v)
        comp = 1 << v
        while True:
            frontier = 0
            m = comp
            while m:
                low = m & -m
                frontier |= adj_mask[low.bit_length() - 1]
                m ^= low
            grown = comp | (frontier & allowed)
            if grown == comp:
                return bin(frontier & ~allowed).count("1")
            comp = grown

    tw = [0] * (1 << n)
    by_popcount: list[list[int]] = [[] for _ in range(n + 1)]
    for s in range(1 << n):
        by_popcount[bin(s).count("1")].append(s)
    for size in range(1, n + 1):
        for s in by_popcount[size]:
            best = n
            m = s
            while m:
                low = m & -m
                v = low.bit_length() - 1
                rest = s ^ low
                cand = max(tw[rest], q(rest, v))
                if cand < best:
                    best = cand
                m ^= low
            tw[s] = best
    return tw[full]
