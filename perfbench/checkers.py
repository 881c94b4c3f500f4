"""Reference computations the benchmark checks cfguard's outputs against.

Nothing here imports cfguard.  Graphs are adjacency lists of sets built from
the benchmark's own edge lists, terrains are lists of integer (x, y) pairs,
and colourings are sequences of ints with 0 meaning "uncoloured".  Each
checker returns None when the output is right and a short reason otherwise,
so a failed check can be reported without raising.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence


def adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


# -- colouring verifiers ----------------------------------------------------


def _cf_ok(closed, colors) -> bool:
    """Some colour occurs exactly once in the closed neighbourhood."""
    counts: dict[int, int] = {}
    for u in closed:
        if colors[u]:
            counts[colors[u]] = counts.get(colors[u], 0) + 1
    return 1 in counts.values()


def _scf_ok(closed, colors) -> bool:
    """The closed neighbourhood is coloured somewhere and repeats no colour."""
    used = [colors[u] for u in closed if colors[u]]
    return bool(used) and len(set(used)) == len(used)


def cf_violation(adj: Sequence[set[int]], colors: Sequence[int]) -> Optional[int]:
    """Smallest vertex whose closed neighbourhood has no colour exactly once."""
    if len(colors) != len(adj):
        return -1
    return next((v for v, ns in enumerate(adj) if not _cf_ok((v, *ns), colors)), None)


def scf_violation(adj: Sequence[set[int]], colors: Sequence[int]) -> Optional[int]:
    """Smallest vertex whose closed neighbourhood is uncoloured or repeats a colour."""
    if len(colors) != len(adj):
        return -1
    return next((v for v, ns in enumerate(adj) if not _scf_ok((v, *ns), colors)), None)


def witness_problem(adj, colors, k: int, strong: bool) -> Optional[str]:
    """Reason a claimed k-colouring witness is wrong, or None."""
    if colors is None:
        return "feasible verdict without a witness"
    if any(not 0 <= c <= k for c in colors):
        return f"colour outside [0, {k}]"
    bad = (scf_violation if strong else cf_violation)(adj, colors)
    if bad is not None:
        return f"{'strong ' if strong else ''}conflict-free violation at vertex {bad}"
    return None


def min_colors_bruteforce(adj: Sequence[set[int]], strong: bool, kmax: int) -> Optional[tuple[int, list[int]]]:
    """Smallest k <= kmax with a (strong) conflict-free k-colouring and one such colouring, else None.

    Backtracking over vertices in id order; a vertex is checked as soon as its
    whole closed neighbourhood is assigned, and colours are used in increasing
    order of first appearance, which removes the k! relabellings.
    """
    n = len(adj)
    closed = [sorted({v, *adj[v]}) for v in range(n)]
    due: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        due[max(closed[v])].append(v)
    ok = _scf_ok if strong else _cf_ok
    for k in range(1, kmax + 1):
        colors = [0] * n

        def place(i: int, top: int) -> bool:
            if i == n:
                return True
            for c in range(min(top + 1, k) + 1):
                colors[i] = c
                if all(ok(closed[v], colors) for v in due[i]):
                    if place(i + 1, max(top, c)):
                        return True
            colors[i] = 0
            return False

        if place(0, 0):
            return k, colors
    return None


# -- graph structure ---------------------------------------------------------


def degeneracy(adj: Sequence[set[int]]) -> int:
    """Largest minimum degree met while peeling minimum-degree vertices (bucket queue)."""
    n = len(adj)
    deg = [len(ns) for ns in adj]
    buckets: list[set[int]] = [set() for _ in range(max(deg, default=0) + 1)]
    for v, d in enumerate(deg):
        buckets[d].add(v)
    removed = [False] * n
    best = lo = 0
    for _ in range(n):
        lo = max(lo - 1, 0)
        while not buckets[lo]:
            lo += 1
        v = buckets[lo].pop()
        best = max(best, lo)
        removed[v] = True
        for u in adj[v]:
            if not removed[u]:
                buckets[deg[u]].discard(u)
                deg[u] -= 1
                buckets[deg[u]].add(u)
    return best


def has_perfect_code(adj: Sequence[set[int]]) -> bool:
    """Whether a forest has a perfect code (every N[v] holds exactly one code vertex).

    A perfect code is exactly a conflict-free 1-colouring.  Linear-time DP per
    rooted component with three states for a vertex v:
    IN  - v is in the code (its children are out and not dominated from below);
    UP  - v is out and dominated by exactly one child;
    OUT - v is out and dominated by none of its children (its parent must be IN).
    """
    n = len(adj)
    seen = [False] * n
    f_in, f_up, f_out = [False] * n, [False] * n, [False] * n
    for root in range(n):
        if seen[root]:
            continue
        order, parent, stack = [], {root: -1}, [root]
        seen[root] = True
        while stack:
            v = stack.pop()
            order.append(v)
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    parent[u] = v
                    stack.append(u)
        for v in reversed(order):
            kids = [u for u in adj[v] if u != parent[v]]
            f_in[v] = all(f_out[c] for c in kids)
            f_out[v] = all(f_up[c] for c in kids)
            not_up = [c for c in kids if not f_up[c]]
            if not not_up:
                f_up[v] = any(f_in[c] for c in kids)
            else:
                f_up[v] = len(not_up) == 1 and f_in[not_up[0]]
        if not (f_in[root] or f_up[root]):
            return False
    return True


# -- terrain geometry --------------------------------------------------------


def slope_sweep_visibility(points: Sequence[tuple[int, int]]) -> set[tuple[int, int]]:
    """Visible pairs (i < j): j is visible from i iff slope(i, j) >= every slope(i, m), i < m < j.

    Slopes are compared as exact fractions; x is strictly increasing, so every
    denominator is positive.
    """
    edges = set()
    for i, (xi, yi) in enumerate(points):
        bdx, bdy = 1, None  # running maximum slope bdy / bdx
        for j in range(i + 1, len(points)):
            dx, dy = points[j][0] - xi, points[j][1] - yi
            if bdy is None or dy * bdx >= bdy * dx:
                edges.add((i, j))
                bdx, bdy = dx, dy
    return edges


def _turn(a, b, c) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def onion_layers(points: Sequence[tuple[int, int]]) -> list[list[int]]:
    """Successive upper hulls (collinear boundary points kept), by a monotone chain."""
    remaining = list(range(len(points)))
    layers = []
    while remaining:
        hull: list[int] = []
        for i in remaining:
            while len(hull) >= 2 and _turn(points[hull[-2]], points[hull[-1]], points[i]) > 0:
                hull.pop()
            hull.append(i)
        layers.append(hull)
        on = set(hull)
        remaining = [i for i in remaining if i not in on]
    return layers


def onion_problem(points: Sequence[tuple[int, int]], layers) -> Optional[str]:
    """Check that layers partition the vertices and each is the upper hull of what remains.

    A layer H of the remaining set R is its upper hull exactly when H runs from
    the leftmost to the rightmost point of R, turns right or goes straight at
    every interior point, and every point of R outside H lies strictly below
    the chain (a point on the chain must belong to H).
    """
    flat = [v for layer in layers for v in layer]
    if sorted(flat) != list(range(len(points))):
        return "layers do not partition the vertices"
    remaining = set(range(len(points)))
    for li, layer in enumerate(layers):
        hull = list(layer)
        if not hull or hull != sorted(hull):
            return f"layer {li} is empty or not in x order"
        if hull[0] != min(remaining) or hull[-1] != max(remaining):
            return f"layer {li} misses an extreme point"
        for a, b, c in zip(hull, hull[1:], hull[2:]):
            if _turn(points[a], points[b], points[c]) > 0:
                return f"layer {li} turns left at vertex {b}"
        in_hull = set(hull)
        for r in remaining - in_hull:
            seg = bisect_left(hull, r)
            if _turn(points[hull[seg - 1]], points[hull[seg]], points[r]) >= 0:
                return f"vertex {r} is not below layer {li}"
        remaining -= in_hull
    return None


def guard_problem(adj, colors, budget: int) -> Optional[str]:
    """Layered-guard properties: colour budget kept and every vertex sees a guard."""
    if len(colors) != len(adj):
        return "guard colouring has the wrong length"
    if max(colors, default=0) > budget or min(colors, default=0) < 0:
        return f"guard colour outside [0, {budget}]"
    for v, ns in enumerate(adj):
        if not any(colors[u] for u in (v, *ns)):
            return f"vertex {v} sees no guard"
    return None
