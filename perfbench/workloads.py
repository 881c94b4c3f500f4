"""Seeded inputs, per-round operations and output checks of the three workloads.

Every input is generated here from ``--seed`` with the benchmark's own random
streams (``random.Random`` seeded by a string, which does not depend on
PYTHONHASHSEED), never with cfguard's generators, so a change to the program
cannot change what is measured.  A workload's ``run_round`` makes one library
call at a time through ``call``; every round makes the same calls on inputs
equal in value to the first round's but relabelled (``start_round``), and
``check`` compares each round's results with the reference computations in
``checkers``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

import checkers as ck

Y_RANGE = (0, 20)


def stream(workload: str, seed: int, slot: object) -> random.Random:
    return random.Random(f"{workload}/{seed}/{slot}")


# -- input generators ----------------------------------------------------------


def relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def partial_ktree(rng: random.Random, n: int, w: int, drop: float = 0.15):
    """Random w-tree on n vertices with each edge dropped with probability ``drop``."""
    edges = {(a, b) for a in range(w) for b in range(a + 1, w)}
    cliques = [tuple(range(w))]
    for v in range(w, n):
        clique = cliques[rng.randrange(len(cliques))]
        edges.update((a, v) for a in clique)
        cliques += [tuple(x for x in clique if x != a) + (v,) for a in clique]
    return relabel(rng, n, [e for e in sorted(edges) if rng.random() > drop])


def cycle(n: int):
    return [(i, (i + 1) % n) for i in range(n)]


def _binary_tree_edges(rng: random.Random, n: int):
    """Each new vertex hangs below a uniform choice among vertices with < 2 children.

    Bounded degree keeps the strong-CF number at 2 or 3: in random recursive
    trees a hub next to four vertices with two leaves each forces 4 colours,
    and one such tree in a seed's inputs grows the scfc tables by 14 MB.
    """
    edges, open_, kids = [], [0], [0] * n
    for v in range(1, n):
        i = rng.randrange(len(open_))
        parent = open_[i]
        edges.append((parent, v))
        kids[parent] += 1
        if kids[parent] == 2:
            open_[i] = open_[-1]
            open_.pop()
        open_.append(v)
    return edges


def random_tree(rng: random.Random, n: int):
    return relabel(rng, n, _binary_tree_edges(rng, n))


def random_forest(rng: random.Random, n: int, parts: int):
    edges = _binary_tree_edges(rng, n)
    for _ in range(parts - 1):
        edges.pop(rng.randrange(len(edges)))
    return relabel(rng, n, edges)


def perfect_code_tree(rng: random.Random, n: int):
    """Stars joined leaf to leaf: the centres form a perfect code by construction."""
    stars, start = [], 0
    while start < n:
        size = min(rng.randint(2, 6), n - start)
        if size < 2:
            stars[-1].append(start)
            break
        stars.append(list(range(start, start + size)))
        start += size
    edges = [(s[0], leaf) for s in stars for leaf in s[1:]]
    for i in range(1, len(stars)):
        other = stars[rng.randrange(i)]
        edges.append((rng.choice(other[1:]), rng.choice(stars[i][1:])))
    return relabel(rng, n, edges)


def random_terrain_points(rng: random.Random, n: int):
    """x steps of 1 to 3, y uniform in Y_RANGE."""
    pts, x = [], 0
    for _ in range(n):
        pts.append((x, rng.randint(*Y_RANGE)))
        x += rng.randint(1, 3)
    return pts


def min_fill_width(adj) -> int:
    """Width of the greedy min-fill elimination (ties: degree, then id)."""
    a = {v: set(ns) for v, ns in enumerate(adj)}
    width = 0
    while a:
        v = min(a, key=lambda u: (sum(1 for x in a[u] for y in a[u] if x < y and y not in a[x]),
                                  len(a[u]), u))
        ns = a.pop(v)
        width = max(width, len(ns))
        for x in ns:
            a[x].discard(v)
            a[x] |= ns - {x}
    return width


# -- instances and rounds --------------------------------------------------------


# x offset per round of a terrain's copy; visibility and peeling are exact
# integer geometry, so a shifted terrain has the same answers by index
TERRAIN_SHIFT = 1009


@dataclass
class Instance:
    kind: str
    n: int
    edges: list = field(default_factory=list)
    points: list = field(default_factory=list)
    cf_cap: int = 0  # largest k a decision ladder may try
    scf_cap: int = 0
    obj: object = None  # the cfguard Graph or Terrain of the current round
    perm: list | None = None  # the current round's label of each original vertex
    brute: dict = field(default_factory=dict)  # (strong, kmax) -> brute-force minimum

    @cached_property
    def visibility(self) -> set[tuple[int, int]]:
        return ck.slope_sweep_visibility(self.points)

    @cached_property
    def adj(self):
        return ck.adjacency(self.n, self.visibility if self.points else self.edges)

    @cached_property
    def p(self) -> int:
        return len(ck.onion_layers(self.points))

    def bruteforce(self, strong: bool, kmax: int):
        if (strong, kmax) not in self.brute:
            self.brute[strong, kmax] = ck.min_colors_bruteforce(self.adj, strong, kmax)
        return self.brute[strong, kmax]

    def build(self, lib, rng: random.Random | None = None, shift: int = 0) -> None:
        """Make ``obj``: the original input, or a copy relabelled by ``rng`` / shifted by ``shift``."""
        if self.points:
            self.obj = lib.terrain.Terrain(tuple((x + shift, y) for x, y in self.points))
            return
        self.perm = None
        edges = self.edges
        if rng is not None:
            self.perm = list(range(self.n))
            rng.shuffle(self.perm)
            edges = [(self.perm[u], self.perm[v]) for u, v in edges]
        self.obj = lib.graph.Graph(self.n, edges)


class Workload:
    """Seeded inputs made at construction; cfguard objects made by ``build``, one set per round."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.instances: list[Instance] = []

    def build(self, lib) -> None:
        """The set-up: the first round's cfguard objects, made from the original inputs."""
        self.lib = lib
        for inst in self.instances:
            inst.build(lib)

    def start_round(self, r: int) -> None:
        """Give round r >= 1 inputs equal in value to the first round's but unequal as keys.

        Graphs get a vertex relabelling seeded by (seed, r, instance), terrains
        an x-shift of r * TERRAIN_SHIFT, so a cache kept across calls cannot
        answer a round from an earlier one; results are mapped back to the
        original labels before they are recorded.
        """
        for i, inst in enumerate(self.instances):
            inst.build(self.lib, stream(self.name, self.seed, ("relabel", r, i)), r * TERRAIN_SHIFT)


@dataclass
class Record:
    """One library call of a round: what was called, on what, and its normalised result."""

    inst: int
    func: str
    k: object
    result: object


def ladder(call, lib, inst_id, inst, problem, cap):
    """Decide k = 1, 2, ... up to ``cap``, stopping at the first feasible k >= 2.

    Each decision builds its own decomposition, as ``cfguard solve --k`` does.
    Below the minimum a decision is infeasible; at it, feasible with a witness.
    """
    mod, fn = (lib.cfc, "solve_cfc") if problem == "cfc" else (lib.scfc, "solve_scfc")
    for k in range(1, cap + 1):
        col = call(inst_id, mod, fn, (inst.obj, k), k)
        if col is not None and k >= 2:
            return


class KtreeDecide(Workload):
    """Fixed-k decisions on partial 2- and 3-trees, cycles and brute-forceable graphs."""

    name = "ktree-decide"

    def __init__(self, seed: int):
        super().__init__(seed)
        # Caps keep away from calls whose tables dwarf the rest of the round:
        # cfc k = 3 on a 40-vertex 3-tree takes 15 s (7.7M states), scfc k = 4
        # holds up to 0.6M states on a 2-tree and takes 1-4 s on a 3-tree.
        # A fixed spread of sizes smears each kind of call over a range of
        # times, so the median call does not sit in a gap between two kinds
        # and jump with the seed (op_s.p50 spread 0.42 at one size, 0.09 so).
        for i, n in enumerate(range(30, 51, 4)):
            self._add("ktree3", n, partial_ktree(stream(self.name, seed, ("w3", i)), n, 3), 2, 3)
        for i, n in enumerate(range(40, 91, 10)):
            self._add("ktree2", n, partial_ktree(stream(self.name, seed, ("w2", i)), n, 2), 2, 3)
        base = 3 * stream(self.name, seed, "cycles").randrange(20, 24)
        for n in range(base, base + 3):  # one n of each residue mod 3, 60 <= n <= 71
            self._add("cycle", n, cycle(n), 2, 3)
        for i in range(4):
            small = partial_ktree(stream(self.name, seed, ("small", i)), 9, 2, drop=0.3)
            self._add("small", 9, small, 3, 4)

    def _add(self, kind, n, edges, cf_cap, scf_cap):
        self.instances.append(Instance(kind, n, edges, cf_cap=cf_cap, scf_cap=scf_cap))

    def run_round(self, call):
        for i, inst in enumerate(self.instances):
            ladder(call, self.lib, i, inst, "cfc", inst.cf_cap)
            ladder(call, self.lib, i, inst, "scfc", inst.scf_cap)

    def check(self, records):
        errs = []
        by_inst: dict[int, dict[str, dict[int, object]]] = {}
        for r in records:
            by_inst.setdefault(r.inst, {}).setdefault(r.func, {})[r.k] = r.result
        for i, inst in enumerate(self.instances):
            adj = inst.adj
            found = {}
            for func, strong in (("solve_cfc", False), ("solve_scfc", True)):
                verdicts = by_inst[i][func]
                for k, col in verdicts.items():
                    if col is not None:
                        why = ck.witness_problem(adj, col, k, strong)
                        if why:
                            errs.append(f"{inst.kind} #{i} {func} k={k}: {why}")
                ks = sorted(verdicts)
                feas = [verdicts[k] is not None for k in ks]
                if feas != sorted(feas):
                    errs.append(f"{inst.kind} #{i} {func}: feasibility not monotone in k")
                found[func] = next((k for k in ks if verdicts[k] is not None), None)
            cf_min, scf_min = found["solve_cfc"], found["solve_scfc"]
            if cf_min is not None and scf_min is not None and cf_min > scf_min:
                errs.append(f"{inst.kind} #{i}: CF minimum {cf_min} > strong-CF minimum {scf_min}")
            scf = by_inst[i]["solve_scfc"]
            for k, col in by_inst[i]["solve_cfc"].items():
                if col is None and scf.get(k) is not None:
                    errs.append(f"{inst.kind} #{i}: strong CF {k}-colourable but not CF {k}-colourable")
            if cf_min is not None and cf_min > ck.degeneracy(adj) + 1:
                errs.append(f"{inst.kind} #{i}: CF minimum {cf_min} exceeds degeneracy + 1")
            if inst.kind == "cycle" and (by_inst[i]["solve_cfc"][1] is not None) != (inst.n % 3 == 0):
                errs.append(f"cycle n={inst.n}: CF 1-decision disagrees with 3 | n")
            if inst.kind == "small":
                for func, strong, got in (("solve_cfc", False, cf_min), ("solve_scfc", True, scf_min)):
                    best = inst.bruteforce(strong, max(by_inst[i][func]))
                    want = best and best[0]
                    if got != want:
                        errs.append(f"small #{i} {func}: minimum {got}, brute force {want}")
        return errs


class TerrainMin(Workload):
    """Minimum-k guarding through ``pipeline`` on random 20-vertex terrains of min-fill width 3.

    The cfc pipeline runs on every terrain and the scfc pipeline on every
    third, so that the median call is a cfc one.  Wider terrains are left out:
    at width 4 the cfc tables of one terrain are 4x larger on average and
    vary 7x between terrains, and the scfc tables of a width-4 or width-5
    terrain whose minimum is 3 grow to 0.5M states, so the few largest inputs
    of a seed would set its run's time and peak memory by themselves.
    """

    name = "terrain-min"
    # about a quarter of the drawn terrains have width 3; a fixed count keeps
    # the calls per round the same for every seed
    N, WIDTH, COUNT = 20, 3, 48

    def __init__(self, seed: int):
        super().__init__(seed)
        for draw in range(100 * self.COUNT):
            pts = random_terrain_points(stream(self.name, seed, draw), self.N)
            if min_fill_width(ck.adjacency(self.N, ck.slope_sweep_visibility(pts))) == self.WIDTH:
                self.instances.append(Instance("terrain", self.N, points=pts))
                if len(self.instances) == self.COUNT:
                    return
        raise RuntimeError(f"{self.name}: fewer than {self.COUNT} terrains of width {self.WIDTH}")

    def run_round(self, call):
        for i, inst in enumerate(self.instances):
            call(i, self.lib.terrain, "pipeline", (inst.obj, "cfc"), "cfc")
            if i % 3 == 0:
                call(i, self.lib.terrain, "pipeline", (inst.obj, "scfc"), "scfc")

    def check(self, records):
        errs = []
        mins: dict[int, dict[str, int]] = {}
        for r in records:
            inst = self.instances[r.inst]
            adj, p = inst.adj, inst.p
            k, colors, _states, p_reported = r.result
            strong = r.k == "scfc"
            budget = 2 * p if strong else p + 1
            why = ck.witness_problem(adj, colors, k, strong)
            if why:
                errs.append(f"terrain #{r.inst} pipeline {r.k}: {why}")
            if not 1 <= k <= budget:
                errs.append(f"terrain #{r.inst} pipeline {r.k}: k={k} outside [1, {budget}]")
            if p_reported != p:
                errs.append(f"terrain #{r.inst}: pipeline reports p={p_reported}, peeling gives {p}")
            mins.setdefault(r.inst, {})[r.k] = k
        for i, m in mins.items():
            if len(m) == 2 and m["cfc"] > m["scfc"]:
                errs.append(f"terrain #{i}: CF minimum {m['cfc']} > strong-CF minimum {m['scfc']}")
        return errs


class LargeSparse(Workload):
    """Width-1 graphs and large terrains, where quadratic preprocessing dominates."""

    name = "large-sparse"

    def __init__(self, seed: int):
        super().__init__(seed)
        n, nt = 800, 500
        graphs = [("tree", random_tree(stream(self.name, seed, "tree"), n)),
                  ("tree", random_tree(stream(self.name, seed, "tree2"), n)),
                  ("code-tree", perfect_code_tree(stream(self.name, seed, "code"), n)),
                  ("forest", random_forest(stream(self.name, seed, "forest"), n, 5))]
        pts = random_terrain_points(stream(self.name, seed, "terrain"), nt)
        self.instances = [Instance(kind, n, edges) for kind, edges in graphs]
        self.instances.append(Instance("terrain", nt, points=pts))

    def run_round(self, call):
        lib = self.lib
        for i, inst in enumerate(self.instances):
            if inst.kind != "terrain":
                call(i, lib.cfc, "cf_number", (inst.obj,), None)
                call(i, lib.scfc, "scf_number", (inst.obj,), None)
                continue
            t = lib.terrain
            call(i, t, "visibility_graph", (inst.obj,), None)
            call(i, t, "onion_peeling", (inst.obj,), None)
            strong = call(i, t, "strong_guard", (inst.obj,), None)
            cf = call(i, t, "cf_guard", (inst.obj,), None)
            call(i, t, "verify_guarding", (inst.obj, strong, "strong"), "strong")
            call(i, t, "verify_guarding", (inst.obj, cf, "cf"), "cf")

    def check(self, records):
        errs = []
        found: dict[int, dict[str, object]] = {}
        for r in records:
            found.setdefault(r.inst, {})[r.func if r.k is None else f"{r.func}:{r.k}"] = r.result
        for i, inst in enumerate(self.instances):
            got = found[i]
            if inst.kind != "terrain":
                adj = inst.adj
                (kc, colc), (ks, cols) = got["cf_number"], got["scf_number"]
                for name, k, col, strong in (("cf_number", kc, colc, False), ("scf_number", ks, cols, True)):
                    why = ck.witness_problem(adj, col, k, strong)
                    if why:
                        errs.append(f"{inst.kind}: {name}: {why}")
                if (kc == 1) != ck.has_perfect_code(adj):
                    errs.append(f"{inst.kind}: cf_number={kc} disagrees with the perfect-code DP")
                if inst.kind == "code-tree" and kc != 1:
                    errs.append(f"code-tree: cf_number={kc}, but the tree has a perfect code")
                if kc > ck.degeneracy(adj) + 1:
                    errs.append(f"{inst.kind}: cf_number={kc} exceeds degeneracy + 1")
                if kc > ks:
                    errs.append(f"{inst.kind}: cf_number={kc} > scf_number={ks}")
                continue
            adj = inst.adj
            if set(got["visibility_graph"]) != inst.visibility:
                errs.append("terrain: visibility edges differ from the slope sweep")
            layers = got["onion_peeling"]
            why = ck.onion_problem(inst.points, layers)
            if why:
                errs.append(f"terrain: onion peeling: {why}")
            p = inst.p
            for fn, mode, budget, verifier in (("strong_guard", "strong", 2 * p, ck.scf_violation),
                                               ("cf_guard", "cf", p + 1, ck.cf_violation)):
                colors = got[fn]
                why = ck.guard_problem(adj, colors, budget)
                if why:
                    errs.append(f"terrain: {fn}: {why}")
                if got[f"verify_guarding:{mode}"] != verifier(adj, colors):
                    errs.append(f"terrain: verify_guarding({mode}) verdict differs from the reference")
        return errs


WORKLOADS = {w.name: w for w in (KtreeDecide, TerrainMin, LargeSparse)}


def normalise(func: str, result, perm: list | None = None):
    """Plain, comparable form of a library call's result, in the original vertex labels.

    ``perm`` is the round's label of each original vertex of a relabelled graph.
    """

    def original(assignment):
        return tuple(assignment) if perm is None else tuple(assignment[x] for x in perm)

    if result is None or func == "verify_guarding":
        return result
    if func in ("solve_cfc", "solve_scfc"):
        return original(result.assignment)
    if func in ("cf_number", "scf_number"):
        return result[0], original(result[1].assignment)
    if func == "pipeline":
        k, gc, stats = result
        return k, tuple(gc.colors), stats["states_evaluated"], stats["p"]
    if func == "visibility_graph":
        return result.edges
    if func == "onion_peeling":
        return result.layers
    if func in ("strong_guard", "cf_guard"):
        return tuple(result.colors)
    raise ValueError(f"no normal form for {func}")


def verdict(record: Record):
    """The part of a record every round must repeat: what was decided, not which witness."""
    func, result = record.func, record.result
    if func in ("solve_cfc", "solve_scfc"):
        answer = result is not None
    elif func in ("cf_number", "scf_number"):
        answer = result[0]
    elif func == "pipeline":
        answer = result[0], result[3]
    elif func in ("strong_guard", "cf_guard"):
        answer = None  # each round's guards are checked on their own
    else:
        answer = result
    return record.inst, func, record.k, answer
