"""Tree-decompositions of the undirected attack graph, and their nice form.

Decompositions take their bags from the ordering's own elimination, a
greedy one (min-fill by default, scored incrementally: Bodlaender & Koster,
2010; the least score is read from the live score buckets) or a given one:
the bag of a vertex is it and its neighbors when it is eliminated, and hangs
below the bag of its first-eliminated neighbor.  A decomposition is three
dicts over integer node ids: ``bags``, ``children`` and the ``root``.  A
nice decomposition is the same tree with two more per-node dicts, ``kind``
(leaf, introduce, forget or join) and ``arg`` (the argument an introduce or
forget node adds or drops).
``make_nice`` rewrites any valid decomposition into one with empty root and
leaf bags, preserving the width exactly, through two closures: ``add`` makes
a node and ``chain`` links two bags by forgets, then introduces.
``post_order`` is the one tree walk.  Along it ``validate`` finds each
element's top holders (the root, or a holder whose parent lacks it) as the
set differences of the tree edges' bags: one per connected part of its bags,
so they are connected iff there is one, and two elements share a bag iff a
top holder of one of them holds both.  ``parse_td`` reads a file in one pass.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass

from .core import AF
from .errors import InputError

HEURISTICS = ("min-fill", "min-degree")

LEAF, INTRO, FORGET, JOIN = "leaf", "intro", "forget", "join"


@dataclass
class TreeDecomposition:
    """A rooted tree of bags."""

    bags: dict[int, frozenset[str]]
    children: dict[int, tuple[int, ...]]
    root: int

    def node_count(self) -> int:
        return len(self.bags)

    def width(self) -> int:
        return max(len(b) for b in self.bags.values()) - 1

    def post_order(self):
        """The nodes below the root, children first; reaching a node twice
        (a cycle, or a node with two parents) is an input error."""
        out, stack, seen = [], [self.root], set()
        while stack:
            t = stack.pop()
            if t in seen:
                raise InputError(f"tree-decomposition reaches node {t} twice")
            seen.add(t)
            out.append(t)
            stack.extend(self.children.get(t, ()))
        return list(reversed(out))

    def validate(self, af: AF) -> list[str]:
        try:
            order = self.post_order()
        except InputError as exc:
            return [str(exc)]
        if set(order) != set(self.bags):
            return ["tree is not connected or has unreachable nodes"]

        # each element's top holders (the root, and each holder whose parent
        # lacks it: one per connected part of its holders), by their bags
        bags, children = self.bags, self.children
        tops: dict[str, list[frozenset[str]]] = {a: [bags[self.root]] for a in bags[self.root]}
        for t in order:
            bag = bags[t]
            for c in children.get(t, ()):
                for a in bags[c] - bag:
                    tops.setdefault(a, []).append(bags[c])
        # a pair shares a bag iff a top holder of one of the two holds both:
        # the highest bag holding both is the root or its parent lacks one
        shared = {(x, y) for x, held in tops.items() for bag in held for y in bag}
        uncovered = [(x, y) for x, y in af.attacks - shared if (y, x) not in shared]
        violations = [f"argument {a} appears in no bag" for a in af.arguments if a not in tops]
        violations += [f"bag element {a} is not an argument" for a in sorted(tops.keys() - set(af.arguments))]
        violations += [f"attack ({x},{y}) is covered by no bag" for x, y in sorted(uncovered)]
        violations += [f"bags containing {a} are not connected" for a in af.arguments if len(tops.get(a, ())) > 1]
        return violations

    def serialize(self) -> str:
        lines = [" ".join(["bag", str(t), *sorted(self.bags[t])]).rstrip() for t in sorted(self.bags)]
        lines += [f"edge {t} {c}" for t in sorted(self.children) for c in self.children[t]]
        if isinstance(self, NiceTreeDecomposition):
            for t in sorted(self.kind):
                kind = self.kind[t]
                label = f"{kind}:{self.arg[t]}" if kind in (INTRO, FORGET) else kind
                lines.append(f"type {t} {label}")
        return "\n".join(lines) + "\n"


@dataclass
class NiceTreeDecomposition(TreeDecomposition):
    """A tree-decomposition with typed nodes: ``kind[t]`` is leaf, intro,
    forget or join, and ``arg[t]`` the argument an introduce or forget node
    adds or drops (unused at other nodes, but present: every bag has both)."""

    kind: dict[int, str]
    arg: dict[int, str | None]

    def validate(self, af: AF) -> list[str]:
        v = super().validate(af)
        if self.root not in self.bags:
            v.append(f"root {self.root} is not a bag")
        elif self.bags[self.root]:
            v.append("root bag is not empty")
        bags, children, args, empty = self.bags, self.children, self.arg, frozenset()
        for t, kind in self.kind.items():
            try:
                bag, kids, a = bags[t], children[t], args[t]
            except KeyError:
                unread = [name for name in ("bags", "children", "arg") if t not in getattr(self, name)]
                v.append(f"node {t} has no {'/'.join(unread)} entry")
                continue
            # a child that is no bag fails the tree check; here it reads as empty
            if kind == LEAF:
                if kids:
                    v.append(f"leaf node {t} has children")
                if bag:
                    v.append(f"leaf node {t} has a non-empty bag")
            elif kind in (INTRO, FORGET):
                name, verb = ("introduce", "add") if kind == INTRO else ("forget", "drop")
                if len(kids) != 1:
                    v.append(f"{name} node {t} must have one child")
                    continue
                child = bags.get(kids[0], empty)
                # one rule both ways: the smaller bag lacks a, the larger is it plus a
                small, large = (child, bag) if kind == INTRO else (bag, child)
                if a is None or a in small or large != small | {a}:
                    v.append(f"{name} node {t} does not {verb} exactly {a!r}")
            elif kind == JOIN:
                if len(kids) != 2:
                    v.append(f"join node {t} must have two children")
                    continue
                b1, b2 = (bags.get(c, empty) for c in kids)
                if not bag == b1 == b2:
                    v.append(f"join node {t} bags differ")
            else:
                v.append(f"node {t} has unknown kind {kind!r}")
        return v + [f"node {t} has no type" for t in self.bags if t not in self.kind]


def parse_td(text: str):
    """Parse the textual TD format in one pass over its lines; type lines
    make the result nice."""
    bags: dict[int, frozenset[str]] = {}
    kids: defaultdict[int, list[int]] = defaultdict(list)
    has_parent: set[int] = set()
    early: list[tuple[int, int]] = []  # edges read before one of their bags
    types: dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        directive = parts[0]
        try:
            if directive == "bag":
                t = int(parts[1])
                if t in bags:
                    raise InputError(f"line {lineno}: duplicate bag {t}")
                bags[t] = frozenset(parts[2:])
            elif directive == "edge":
                p, c = parts[1:]  # exactly two fields: a ValueError otherwise
                p, c = int(p), int(c)
                if p not in bags or c not in bags:
                    early.append((p, c))
                kids[p].append(c)
                has_parent.add(c)
            elif directive == "type":
                t, label = parts[1:]
                t = int(t)
                if t in types:
                    raise InputError(f"line {lineno}: duplicate type for node {t}")
                types[t] = label
            elif not directive.startswith("#"):
                raise InputError(f"line {lineno}: unknown directive {directive!r}")
        except (IndexError, ValueError) as exc:
            raise InputError(f"line {lineno}: malformed TD line {raw.strip()!r}: {exc}") from None
    if not bags:
        raise InputError("TD file declares no bags")
    for p, c in early:  # the first edge in the file that names an undeclared bag
        if p not in bags or c not in bags:
            raise InputError(f"edge ({p},{c}) references an undeclared bag")
    roots = bags.keys() - has_parent
    if len(roots) != 1:
        raise InputError(f"TD must have exactly one root, found {sorted(roots)}")
    (root,) = roots
    children = {t: tuple(kids.get(t, ())) for t in bags}
    if not types:
        return TreeDecomposition(bags, children, root)
    if not types.keys() <= bags.keys():
        raise InputError(f"type lines name undeclared bags {sorted(types.keys() - bags.keys())}")
    kind, arg = {}, {}
    for t in bags:
        label = types.get(t)
        if label is None:
            raise InputError(f"nice TD is missing a type for node {t}")
        k, _, a = label.partition(":")
        if k not in (LEAF, INTRO, FORGET, JOIN) or (a and k in (LEAF, JOIN)):
            raise InputError(f"unknown node type {label!r} for node {t}")
        kind[t] = k
        arg[t] = a or None
    return NiceTreeDecomposition(bags, children, root, kind, arg)


def _eliminate(adj: dict[str, set[str]], v: str) -> set[str]:
    """Remove ``v`` from the graph, join its neighbors pairwise (fill edges)
    and return them."""
    nbs = adj.pop(v)
    for u in nbs:
        adj[u] |= nbs
        adj[u] -= {u, v}
    return nbs


def _elimination(af: AF, heuristic: str, order, rng) -> list[tuple[str, set[str]]]:
    """Each vertex of the attack graph, in the given ``order`` or else the
    greedy one, with its neighbors at the moment it is eliminated."""
    if heuristic not in HEURISTICS:
        raise InputError(f"unknown heuristic {heuristic!r}")
    if order is not None:
        if heuristic != "min-fill" or rng is not None:
            raise InputError("a given order takes no heuristic and no rng")
        order = list(order)
        if sorted(order, key=str) != list(af.arguments):
            raise InputError("ordering is not a permutation of the arguments")

    adj: dict[str, set[str]] = {a: set() for a in af.arguments}
    for x, y in af.attacks:
        if x != y:  # a self-attack adds no undirected edge
            adj[x].add(y)
            adj[y].add(x)
    if order is not None:
        return [(v, _eliminate(adj, v)) for v in order]

    if heuristic == "min-degree":
        score = lambda v: len(adj[v])
    else:  # d(d-1) ordered pairs among v's d neighbors, less the adjacent ones (seen from both ends)
        def score(v):
            nbs = adj[v]
            return (len(nbs) * (len(nbs) - 1) - sum(len(nbs & adj[u]) for u in nbs)) // 2
    scores = {v: score(v) for v in adj}
    # score -> the negated ranks of its names, ascending, so that the first
    # name is the last entry; a score leaves with its last name
    names = af.arguments
    rank = {v: -i for i, v in enumerate(names)}
    tied: dict[int, list[int]] = {}
    for v in reversed(names):
        tied.setdefault(scores[v], []).append(rank[v])
    out = []
    while scores:
        least = min(tied)
        ties = tied[least]
        v = names[-ties.pop(-1 if rng is None else -1 - int(rng.integers(len(ties))))]
        if not ties:
            del tied[least]
        del scores[v]
        nbs = _eliminate(adj, v)
        out.append((v, nbs))
        for u in nbs if heuristic == "min-degree" else nbs.union(*(adj[u] for u in nbs)):
            s = score(u)
            if s != scores[u]:
                old = tied[scores[u]]
                del old[bisect_left(old, rank[u])]
                if not old:
                    del tied[scores[u]]
                scores[u] = s
                insort(tied.setdefault(s, []), rank[u])
    return out


def elimination_order(af: AF, heuristic: str = "min-fill", rng=None):
    """A greedy elimination ordering of the attack graph's vertices: a
    least-score vertex at each step, the first by name or, with ``rng``, a
    random one.  An elimination of ``v`` rescores only what it can change:
    the degree of ``N(v)``, or the fill-in of ``N(v) ∪ N(N(v))`` after the fill
    edges (Bodlaender & Koster, *Treewidth computations I*, 2010)."""
    return [v for v, _ in _elimination(af, heuristic, None, rng)]


def decompose(af: AF, heuristic: str = "min-fill", order=None, rng=None) -> TreeDecomposition:
    """Tree-decomposition from the ordering's own elimination: the bag of the
    i-th eliminated vertex is it with its neighbors then, below the bag of its
    first-eliminated neighbor, or the root's if it has none."""
    steps = _elimination(af, heuristic, order, rng)
    if not steps:
        return TreeDecomposition({0: frozenset()}, {0: ()}, 0)

    position = {v: i for i, (v, _) in enumerate(steps)}
    root = len(steps) - 1
    bags: dict[int, frozenset[str]] = {}
    children: dict[int, list[int]] = {i: [] for i in range(len(steps))}
    for i, (v, nbs) in enumerate(steps):
        bags[i] = frozenset(nbs | {v})
        p = min((position[u] for u in nbs), default=root)  # other components hang below the root
        if p != i:
            children[p].append(i)
    return TreeDecomposition(bags, {i: tuple(c) for i, c in children.items()}, root)


def make_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Rewrite a valid decomposition into nice form (same width)."""
    nice = NiceTreeDecomposition({}, {}, 0, {}, {})

    def add(kind, bag, children=(), arg=None) -> int:
        i = len(nice.bags)
        nice.bags[i], nice.children[i], nice.kind[i], nice.arg[i] = frozenset(bag), tuple(children), kind, arg
        return i

    def chain(below: int, target_bag: frozenset[str]) -> int:
        """Forget-then-introduce chain from the bag of ``below`` to ``target_bag``."""
        cur = below
        bag = set(nice.bags[below])
        for a in sorted(bag - target_bag):
            bag.discard(a)
            cur = add(FORGET, bag, (cur,), a)
        for a in sorted(target_bag - bag):
            bag.add(a)
            cur = add(INTRO, bag, (cur,), a)
        return cur

    parent = {c: t for t, kids in td.children.items() for c in kids}
    tops: dict[int, int] = {}  # finished node -> top of its chain to the parent's bag
    for t in td.post_order():
        kids = td.children.get(t, ())
        if kids:
            cur = tops.pop(kids[0])
            for c in kids[1:]:
                cur = add(JOIN, td.bags[t], (cur, tops.pop(c)))
        else:
            cur = chain(add(LEAF, frozenset()), td.bags[t])
        # chain up before the next sibling's subtree starts: node ids stay depth-first
        tops[t] = chain(cur, td.bags[parent[t]] if t in parent else frozenset())
    nice.root = tops[td.root]
    return nice
