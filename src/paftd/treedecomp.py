"""Tree-decompositions of the undirected attack graph, and their nice form.

Decompositions are built from an elimination ordering (min-fill by default)
with the usual bag-tree assembly: the bag of an eliminated vertex hangs below
the bag of its first-eliminated remaining neighbor.  ``make_nice`` rewrites
any valid decomposition into one with empty root and leaf bags and typed
introduce/forget/join nodes, preserving the width exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import AF
from .errors import InputError

HEURISTICS = ("min-fill", "min-degree", "given-order")

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
        out, stack = [], [self.root]
        while stack:
            t = stack.pop()
            out.append(t)
            stack.extend(self.children.get(t, ()))
        return list(reversed(out))

    def validate(self, af: AF) -> list[str]:
        return _validate_bags(self.bags, self.children, self.root, af)

    def serialize(self) -> str:
        return _serialize(self.bags, self.children, types=None)


@dataclass
class NiceNode:
    id: int
    kind: str
    bag: frozenset[str]
    children: tuple[int, ...]
    arg: str | None = None


@dataclass
class NiceTreeDecomposition:
    nodes: dict[int, NiceNode]
    root: int

    def node_count(self) -> int:
        return len(self.nodes)

    def width(self) -> int:
        return max(len(n.bag) for n in self.nodes.values()) - 1

    def post_order(self):
        out, stack = [], [self.root]
        while stack:
            t = stack.pop()
            out.append(t)
            stack.extend(self.nodes[t].children)
        return list(reversed(out))

    def validate(self, af: AF) -> list[str]:
        bags = {i: n.bag for i, n in self.nodes.items()}
        children = {i: n.children for i, n in self.nodes.items()}
        violations = _validate_bags(bags, children, self.root, af)
        violations.extend(self._validate_shape())
        return violations

    def _validate_shape(self) -> list[str]:
        v = []
        if self.nodes[self.root].bag:
            v.append("root bag is not empty")
        for n in self.nodes.values():
            if n.kind == LEAF:
                if n.children:
                    v.append(f"leaf node {n.id} has children")
                if n.bag:
                    v.append(f"leaf node {n.id} has a non-empty bag")
            elif n.kind == INTRO:
                if len(n.children) != 1:
                    v.append(f"introduce node {n.id} must have one child")
                    continue
                child = self.nodes[n.children[0]]
                if n.arg is None or n.arg in child.bag or n.bag != child.bag | {n.arg}:
                    v.append(f"introduce node {n.id} does not add exactly {n.arg!r}")
            elif n.kind == FORGET:
                if len(n.children) != 1:
                    v.append(f"forget node {n.id} must have one child")
                    continue
                child = self.nodes[n.children[0]]
                if n.arg is None or n.arg not in child.bag or n.bag != child.bag - {n.arg}:
                    v.append(f"forget node {n.id} does not drop exactly {n.arg!r}")
            elif n.kind == JOIN:
                if len(n.children) != 2:
                    v.append(f"join node {n.id} must have two children")
                    continue
                b1, b2 = (self.nodes[c].bag for c in n.children)
                if not n.bag == b1 == b2:
                    v.append(f"join node {n.id} bags differ")
            else:
                v.append(f"node {n.id} has unknown kind {n.kind!r}")
        return v

    def serialize(self) -> str:
        bags = {i: n.bag for i, n in self.nodes.items()}
        children = {i: n.children for i, n in self.nodes.items()}
        types = {}
        for i, n in self.nodes.items():
            if n.kind in (INTRO, FORGET):
                types[i] = f"{n.kind}:{n.arg}"
            else:
                types[i] = n.kind
        return _serialize(bags, children, types)


def _validate_bags(bags, children, root, af: AF) -> list[str]:
    violations = []
    parents = {}
    for t, kids in children.items():
        for c in kids:
            if c in parents:
                violations.append(f"node {c} has two parents")
            parents[c] = t
    reachable = set()
    stack = [root]
    while stack:
        t = stack.pop()
        if t in reachable:
            violations.append(f"cycle through node {t}")
            break
        reachable.add(t)
        stack.extend(children.get(t, ()))
    if reachable != set(bags):
        violations.append("tree is not connected or has unreachable nodes")
        return violations

    holders: dict[str, set[int]] = {}
    for t, b in bags.items():
        for a in b:
            holders.setdefault(a, set()).add(t)
    covered = set().union(*bags.values()) if bags else set()
    for a in af.arguments:
        if a not in covered:
            violations.append(f"argument {a} appears in no bag")
    for a in sorted(covered - set(af.arguments)):
        violations.append(f"bag element {a} is not an argument")
    for x, y in sorted(af.attacks):
        if holders.get(x, set()).isdisjoint(holders.get(y, ())):
            violations.append(f"attack ({x},{y}) is covered by no bag")
    for a in af.arguments:
        holderset = holders.get(a)
        if not holderset:
            continue
        # connectedness: the holders must induce a subtree
        start = next(iter(holderset))
        seen = {start}
        stack = [start]
        while stack:
            t = stack.pop()
            for nb in list(children.get(t, ())) + ([parents[t]] if t in parents else []):
                if nb in holderset and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != holderset:
            violations.append(f"bags containing {a} are not connected")
    return violations


def _serialize(bags, children, types) -> str:
    lines = []
    for t in sorted(bags):
        lines.append(" ".join(["bag", str(t), *sorted(bags[t])]).rstrip())
    for t in sorted(children):
        for c in children[t]:
            lines.append(f"edge {t} {c}")
    if types is not None:
        for t in sorted(types):
            lines.append(f"type {t} {types[t]}")
    return "\n".join(lines) + "\n"


def parse_td(text: str):
    """Parse the textual TD format; type lines make the result nice."""
    bags: dict[int, frozenset[str]] = {}
    edges: list[tuple[int, int]] = []
    types: dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "bag":
                t = int(parts[1])
                if t in bags:
                    raise InputError(f"line {lineno}: duplicate bag {t}")
                bags[t] = frozenset(parts[2:])
            elif parts[0] == "edge":
                edges.append((int(parts[1]), int(parts[2])))
            elif parts[0] == "type":
                types[int(parts[1])] = parts[2]
            else:
                raise InputError(f"line {lineno}: unknown directive {parts[0]!r}")
        except (IndexError, ValueError) as exc:
            raise InputError(f"line {lineno}: malformed TD line {line!r}: {exc}") from None
    if not bags:
        raise InputError("TD file declares no bags")
    children: dict[int, tuple[int, ...]] = {t: () for t in bags}
    has_parent = set()
    for p, c in edges:
        if p not in bags or c not in bags:
            raise InputError(f"edge ({p},{c}) references an undeclared bag")
        children[p] = children[p] + (c,)
        has_parent.add(c)
    roots = [t for t in bags if t not in has_parent]
    if len(roots) != 1:
        raise InputError(f"TD must have exactly one root, found {sorted(roots)}")
    root = roots[0]
    if not types:
        return TreeDecomposition(bags, children, root)
    nodes = {}
    for t in bags:
        if t not in types:
            raise InputError(f"nice TD is missing a type for node {t}")
        kind, _, arg = types[t].partition(":")
        if kind not in (LEAF, INTRO, FORGET, JOIN):
            raise InputError(f"unknown node type {types[t]!r} for node {t}")
        nodes[t] = NiceNode(t, kind, bags[t], children[t], arg or None)
    return NiceTreeDecomposition(nodes, root)


def _undirected_adjacency(af: AF) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {a: set() for a in af.arguments}
    for x, y in af.attacks:
        if x != y:  # self-attacks add no undirected edge
            adj[x].add(y)
            adj[y].add(x)
    return adj


def _eliminate(adj: dict[str, set[str]], v: str) -> set[str]:
    """Remove ``v`` from the graph, join its neighbors pairwise (fill edges)
    and return them."""
    nbs = adj.pop(v)
    for u in nbs:
        adj[u].discard(v)
    for u in nbs:
        for w in nbs:
            if u < w:
                adj[u].add(w)
                adj[w].add(u)
    return nbs


def elimination_order(af: AF, heuristic: str = "min-fill", order=None, rng=None):
    """Compute an elimination ordering of the attack graph's vertices."""
    if heuristic not in HEURISTICS:
        raise InputError(f"unknown heuristic {heuristic!r}")
    if heuristic == "given-order":
        if order is None:
            raise InputError("given-order requires an explicit ordering")
        order = list(order)
        if sorted(order) != list(af.arguments):
            raise InputError("ordering is not a permutation of the arguments")
        return order

    adj = _undirected_adjacency(af)
    out = []
    while adj:
        if heuristic == "min-degree":
            score = lambda v: len(adj[v])
        else:
            def score(v):
                nbs = list(adj[v])
                return sum(
                    1
                    for i in range(len(nbs))
                    for j in range(i + 1, len(nbs))
                    if nbs[j] not in adj[nbs[i]]
                )
        scores = {v: score(v) for v in adj}
        best = min(scores.values())
        ties = sorted(v for v, s in scores.items() if s == best)
        v = ties[0] if rng is None else ties[int(rng.integers(len(ties)))]
        out.append(v)
        _eliminate(adj, v)
    return out


def decompose(af: AF, heuristic: str = "min-fill", order=None, rng=None) -> TreeDecomposition:
    """Tree-decomposition via elimination ordering and bag-tree assembly."""
    if not af.arguments:
        return TreeDecomposition({0: frozenset()}, {0: ()}, 0)
    if heuristic == "given-order" or order is not None:
        order = elimination_order(af, "given-order", order)
    else:
        order = elimination_order(af, heuristic, rng=rng)

    adj = _undirected_adjacency(af)
    position = {v: i for i, v in enumerate(order)}
    bags: dict[int, frozenset[str]] = {}
    parent: dict[int, int | None] = {}
    for i, v in enumerate(order):
        nbs = _eliminate(adj, v)
        bags[i] = frozenset(nbs | {v})
        parent[i] = min((position[u] for u in nbs), default=None)

    root = len(order) - 1
    children: dict[int, tuple[int, ...]] = {i: () for i in bags}
    for i, p in parent.items():
        if p is None:
            p = root  # disjoint components hang below the overall root
        if p != i:
            children[p] = children[p] + (i,)
    return TreeDecomposition(bags, children, root)


class _NiceBuilder:
    def __init__(self):
        self.nodes: dict[int, NiceNode] = {}
        self._next = 0

    def add(self, kind, bag, children=(), arg=None) -> int:
        i = self._next
        self._next += 1
        self.nodes[i] = NiceNode(i, kind, frozenset(bag), tuple(children), arg)
        return i

    def chain(self, below: int, target_bag: frozenset[str]) -> int:
        """Forget-then-introduce chain from the bag of ``below`` to ``target_bag``."""
        cur = below
        bag = set(self.nodes[below].bag)
        for a in sorted(bag - target_bag):
            bag.discard(a)
            cur = self.add(FORGET, bag, (cur,), a)
        for a in sorted(target_bag - bag):
            bag.add(a)
            cur = self.add(INTRO, bag, (cur,), a)
        return cur


def make_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Rewrite a valid decomposition into nice form (same width)."""
    b = _NiceBuilder()
    parent = {c: t for t, kids in td.children.items() for c in kids}
    tops: dict[int, int] = {}  # finished node -> top of its chain to the parent's bag
    for t in td.post_order():
        kids = td.children.get(t, ())
        if kids:
            cur = tops.pop(kids[0])
            for c in kids[1:]:
                cur = b.add(JOIN, td.bags[t], (cur, tops.pop(c)))
        else:
            cur = b.chain(b.add(LEAF, frozenset()), td.bags[t])
        # chain up before the next sibling's subtree starts: node ids stay depth-first
        tops[t] = b.chain(cur, td.bags[parent[t]] if t in parent else frozenset())
    return NiceTreeDecomposition(b.nodes, tops[td.root])
