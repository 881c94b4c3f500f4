"""1.5D terrains: exact visibility, onion peeling, and layered guard colorings.

All geometry uses exact integer arithmetic (sign of cross products), so
collinear configurations are decided deterministically.  Coordinates are
limited to 48-bit magnitude; intermediates then fit comfortably in Python
ints without any precision concern.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional

from .cfc import solve_cfc
from .decomposition import make_nice, min_fill_decomposition
from .errors import FormatError
from .graph import Coloring, Graph, verify_conflict_free, verify_strong_conflict_free
from .scfc import solve_scfc
from .treedp import min_k

COORD_LIMIT = 1 << 48


@dataclass(frozen=True)
class Terrain:
    """x-monotone polygonal chain with integer coordinates."""

    points: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("terrain needs at least one vertex")
        for x, y in self.points:
            if abs(x) >= COORD_LIMIT or abs(y) >= COORD_LIMIT:
                raise ValueError("coordinate magnitude exceeds 48 bits")
        for (x0, _), (x1, _) in zip(self.points, self.points[1:]):
            if x1 <= x0:
                raise ValueError("x coordinates must be strictly increasing")

    @property
    def n(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class OnionPeeling:
    """Successive upper convex hulls; layers partition the vertex indices."""

    layers: tuple[tuple[int, ...], ...]

    @property
    def p(self) -> int:
        return len(self.layers)


@dataclass
class GuardColoring:
    """Per-vertex guard colors; 0 means no guard posted."""

    colors: list[int]

    @property
    def K(self) -> int:
        return max(self.colors)


def orientation(a: tuple[int, int], b: tuple[int, int], c: tuple[int, int]) -> int:
    """Sign of the cross product (b-a) x (c-a): >0 iff c is left of a->b."""
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def sees(t: Terrain, i: int, j: int) -> bool:
    """True iff the segment between vertices i and j stays on or above the terrain."""
    if not (0 <= i < t.n and 0 <= j < t.n):
        raise ValueError("vertex index out of range")
    lo, hi = min(i, j), max(i, j)
    a, b = t.points[lo], t.points[hi]
    for m in range(lo + 1, hi):
        if orientation(a, b, t.points[m]) > 0:
            return False
    return True


def visibility_graph(t: Terrain) -> Graph:
    """The graph of the pairs that ``sees`` accepts, by one left-to-right sweep per vertex.

    Sweeping right from vertex i, ``best`` is the steepest vertex seen from i
    so far.  Vertex j is visible iff it is not right of the ray from i through
    ``best`` (the same integer test as ``orientation(p_i, p_best, p_j) >= 0``),
    and then j is the new ``best``.
    """
    pts = t.points
    edges = []
    for i in range(t.n - 1):
        ax, ay = pts[i]
        bx, by = pts[i + 1]
        for j in range(i + 1, t.n):
            x, y = pts[j]
            if (bx - ax) * (y - ay) - (by - ay) * (x - ax) >= 0:
                edges.append((i, j))
                bx, by = x, y
    return Graph(t.n, edges)


def _upper_hull(t: Terrain, indices: list[int]) -> list[int]:
    """Upper hull of the given x-sorted indices, keeping collinear boundary points."""
    hull: list[int] = []
    pts = t.points
    for idx in indices:
        while len(hull) >= 2 and orientation(pts[hull[-2]], pts[hull[-1]], pts[idx]) > 0:
            hull.pop()
        hull.append(idx)
    return hull


def onion_peeling(t: Terrain) -> OnionPeeling:
    remaining = list(range(t.n))
    layers = []
    while remaining:
        hull = _upper_hull(t, remaining)
        layers.append(tuple(hull))
        in_hull = set(hull)
        remaining = [i for i in remaining if i not in in_hull]
    return OnionPeeling(tuple(layers))


def _run_guarding(t: Terrain, color_pair) -> tuple[GuardColoring, dict]:
    """Color the upper hull of each sub-terrain, then guard the gaps below it.

    A sub-terrain at depth d uses the colors ``color_pair(d)``; the gaps are
    disjoint, so the order they are visited in changes nothing.
    """
    colors = [0] * t.n
    pts = t.points
    max_depth = 0
    work = [(list(range(t.n)), 1)]
    while work:
        indices, depth = work.pop()
        a, b = color_pair(depth)
        max_depth = max(max_depth, depth)
        hull = _upper_hull(t, indices)
        apex_pos = max(range(len(hull)), key=lambda i: (pts[hull[i]][1], -pts[hull[i]][0]))
        apex = hull[apex_pos]
        colors[apex] = a
        # sweep right, then left; each sweep alternates starting from the apex color
        for sweep in (hull[apex_pos + 1 :], hull[apex_pos - 1 :: -1] if apex_pos else []):
            last, last_color = apex, a
            for h in sweep:
                if not sees(t, last, h):
                    last_color = b if last_color == a else a
                    colors[h] = last_color
                    last = h
        for h1, h2 in zip(hull, hull[1:]):
            if h2 - h1 > 1:
                work.append((list(range(h1 + 1, h2)), depth + 1))
    p = onion_peeling(t).p
    return GuardColoring(colors), {"max_depth": max_depth, "p": p, "depth_exceeded_p": max_depth > p}


def strong_guard(t: Terrain, stats: Optional[dict] = None) -> GuardColoring:
    """Layered strong chromatic guarding: depth d uses colors 2d-1 and 2d (<= 2p total)."""
    gc, st = _run_guarding(t, lambda d: (2 * d - 1, 2 * d))
    if stats is not None:
        stats.update(st)
    return gc


def cf_guard(t: Terrain, stats: Optional[dict] = None) -> GuardColoring:
    """Layered conflict-free guarding: depth d uses colors d and d+1 (<= p+1 total)."""
    gc, st = _run_guarding(t, lambda d: (d, d + 1))
    if stats is not None:
        stats.update(st)
    return gc


def verify_guarding(t: Terrain, gc: GuardColoring, mode: str) -> Optional[int]:
    """Check a guard coloring against the visibility graph; None if ok."""
    if mode not in ("strong", "cf"):
        raise ValueError("mode must be 'strong' or 'cf'")
    g = visibility_graph(t)
    k = max(gc.K, 1)
    col = Coloring(k, gc.colors)
    if mode == "strong":
        return verify_strong_conflict_free(g, col)
    return verify_conflict_free(g, col)


def pipeline(t: Terrain, problem: str) -> tuple[int, GuardColoring, dict]:
    """Minimal-k guarding via the visibility graph and the matching treewidth DP.

    The color budget (2p for scfc, p+1 for cfc) is guaranteed by the layered
    guarding constructions, so exhausting it indicates an internal bug.
    """
    if problem not in ("cfc", "scfc"):
        raise ValueError("problem must be 'cfc' or 'scfc'")
    start = time.perf_counter()
    g = visibility_graph(t)
    peel = onion_peeling(t)
    budget = peel.p + 1 if problem == "cfc" else 2 * peel.p
    ntd = make_nice(g, min_fill_decomposition(g))
    solve = solve_cfc if problem == "cfc" else solve_scfc
    stats: dict = {"p": peel.p}
    k, col = min_k(solve, g, ntd, budget, start, stats)
    return k, GuardColoring(list(col.assignment)), stats


def random_terrain(n: int, y_lo: int, y_hi: int, seed: int) -> Terrain:
    """Deterministic terrain with unit-spaced-or-wider x steps and uniform y."""
    if y_lo > y_hi:
        raise ValueError("empty y range")
    rng = random.Random(seed)
    x = 0
    pts = []
    for _ in range(n):
        pts.append((x, rng.randint(y_lo, y_hi)))
        x += rng.randint(1, 3)
    return Terrain(tuple(pts))


def parse_terrain(text: str) -> Terrain:
    """Parse one ``x y`` integer pair per line; ``#`` starts a comment."""
    pts = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'x y', got {raw!r}")
        try:
            pts.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer coordinates") from None
    if not pts:
        raise FormatError("empty terrain file")
    try:
        return Terrain(tuple(pts))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_terrain(t: Terrain) -> str:
    return "\n".join(f"{x} {y}" for x, y in t.points) + "\n"


_SVG_PALETTE = (
    "#d62728", "#1f77b4", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)


def terrain_svg(t: Terrain, peel: Optional[OnionPeeling] = None, gc: Optional[GuardColoring] = None) -> str:
    """Static SVG: terrain polyline, layer chains, and labeled guard dots."""
    xs = [x for x, _ in t.points]
    ys = [y for _, y in t.points]
    pad, scale = 20, 10
    w = (max(xs) - min(xs)) * scale + 2 * pad
    h = (max(ys) - min(ys)) * scale + 2 * pad

    def sx(x):
        return pad + (x - min(xs)) * scale

    def sy(y):
        return h - pad - (y - min(ys)) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">'
    ]
    pl = " ".join(f"{sx(x)},{sy(y)}" for x, y in t.points)
    parts.append(f'<polyline points="{pl}" fill="none" stroke="black" stroke-width="2"/>')
    if peel is not None:
        for li, layer in enumerate(peel.layers):
            color = _SVG_PALETTE[li % len(_SVG_PALETTE)]
            lp = " ".join(f"{sx(t.points[i][0])},{sy(t.points[i][1])}" for i in layer)
            parts.append(
                f'<polyline points="{lp}" fill="none" stroke="{color}" '
                f'stroke-width="1" stroke-dasharray="6,3"/>'
            )
    if gc is not None:
        for i, c in enumerate(gc.colors):
            if c == 0:
                continue
            x, y = t.points[i]
            fill = _SVG_PALETTE[(c - 1) % len(_SVG_PALETTE)]
            parts.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" r="5" fill="{fill}"/>')
            parts.append(
                f'<text x="{sx(x) + 7}" y="{sy(y) - 7}" font-size="14">{c}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
