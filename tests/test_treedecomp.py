import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import paftd
from paftd import (
    AF,
    GridSpec,
    InputError,
    NiceTreeDecomposition,
    TreeDecomposition,
    decompose,
    elimination_order,
    generate_grid,
    grid_elimination_order,
    make_nice,
    parse_paf,
    parse_td,
    solve,
)
from paftd.cli import run
from paftd.treedecomp import HEURISTICS

from conftest import FIXTURES, random_paf


def chain_af(n=5):
    names = [f"x{i}" for i in range(n)]
    return AF(names, [(names[i], names[i + 1]) for i in range(n - 1)])


def test_decompose_validates_on_random_graphs():
    rnd = random.Random(31)
    for _ in range(40):
        af = random_paf(rnd).af
        for heuristic in ("min-fill", "min-degree"):
            td = decompose(af, heuristic=heuristic)
            assert td.validate(af) == []
            nice = make_nice(td)
            assert nice.validate(af) == []
            assert nice.width() == td.width()


def test_chain_has_width_one():
    af = chain_af()
    assert decompose(af).width() == 1
    assert decompose(af, heuristic="min-degree").width() == 1


def test_given_order_requires_permutation():
    af = chain_af(3)
    with pytest.raises(InputError, match="unknown heuristic"):
        elimination_order(af, "given-order")
    with pytest.raises(InputError, match="ordering is not a permutation of the arguments"):
        decompose(af, order=["x0", "x1"])
    ab = AF(["a", "b"], [("a", "b")])
    with pytest.raises(InputError, match="ordering is not a permutation of the arguments"):
        decompose(ab, order=["a", 1])
    order = ["x2", "x0", "x1"]
    td = decompose(af, order=order)
    # the i-th bag is the i-th vertex of the order with its neighbors then
    assert td.bags == {0: {"x2", "x1"}, 1: {"x0", "x1"}, 2: {"x1"}}
    assert td.validate(af) == []


@pytest.mark.parametrize(
    "extra",
    [
        {"heuristic": "min-degree"},
        {"rng": np.random.default_rng(3)},
        {"heuristic": "min-degree", "rng": np.random.default_rng(3)},
    ],
    ids=["heuristic", "rng", "both"],
)
@pytest.mark.parametrize("build", [decompose])
def test_given_order_takes_no_heuristic_or_rng(build, extra):
    af = parse_paf((FIXTURES / "chain5.paf").read_text()).paf.af
    with pytest.raises(InputError, match="a given order takes no heuristic and no rng"):
        build(af, order=list("edcba"), **extra)


def reference_order(af, heuristic, rng=None):
    """The greedy ordering with every remaining vertex rescored at every step."""
    adj = {a: set() for a in af.arguments}
    for x, y in af.attacks:
        if x != y:
            adj[x].add(y)
            adj[y].add(x)
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
        nbs = adj.pop(v)
        for u in nbs:
            adj[u].discard(v)
        for u in nbs:
            for w in nbs:
                if u < w:
                    adj[u].add(w)
                    adj[w].add(u)
    return out


def test_order_equals_the_full_rescore_reference():
    rnd = random.Random(33)
    afs = [random_paf(rnd, max_args=rnd.choice([6, 10, 16])).af for _ in range(60)]
    afs += [parse_paf((FIXTURES / f).read_text()).paf.af for f in ("chain5.paf", "cycle5.paf")]
    # the benchmark's grid shapes (dp-replay, long-default, oracle-small) and ROADMAP's 5x20
    shapes = ((4, 30, 2), (2, 300, 1), (3, 3, 2), (5, 20, 0))
    afs += [generate_grid(GridSpec(*shape))[0].af for shape in shapes]
    # many live scores at once, and one score held by every name
    names = [f"v{i}" for i in range(60)]
    afs.append(AF(names, [(x, y) for x in names for y in names if x != y and rnd.random() < 0.15]))
    afs.append(AF([f"w{i}" for i in range(200)]))
    for af in afs:
        for heuristic in HEURISTICS:
            for seed in (None, 0, 1, 2):
                rngs = [None if seed is None else np.random.default_rng(seed) for _ in "ab"]
                want = reference_order(af, heuristic, rngs[0])
                assert elimination_order(af, heuristic, rng=rngs[1]) == want, (af, heuristic, seed)


def reference_decomposition(af, order):
    """The bag tree of ``order`` eliminated again on a fresh adjacency: the
    bag of a vertex is it and its neighbors when it goes, below the bag of its
    first-eliminated neighbor, or the root's when there is none."""
    adj = {a: set() for a in af.arguments}
    for x, y in af.attacks:
        if x != y:
            adj[x].add(y)
            adj[y].add(x)
    position = {v: i for i, v in enumerate(order)}
    root = len(order) - 1
    bags, children = {}, {i: [] for i in range(len(order))}
    for i, v in enumerate(order):
        nbs = adj.pop(v)
        for u in nbs:
            adj[u].discard(v)
            adj[u] |= nbs - {u}
        bags[i] = frozenset(nbs | {v})
        p = min((position[u] for u in nbs), default=root)
        if p != i:
            children[p].append(i)
    return TreeDecomposition(bags, {i: tuple(c) for i, c in children.items()}, root)


def test_decompose_equals_the_replayed_elimination():
    rnd = random.Random(34)
    afs = [random_paf(rnd).af for _ in range(60)]
    cases = [(af, rnd.sample(af.arguments, len(af.arguments))) for af in afs]
    for spec in (GridSpec(4, 30, 2), GridSpec(2, 300, 1), GridSpec(3, 3, 2)):
        cases.append((generate_grid(spec)[0].af, grid_elimination_order(spec)))
    for af, given in cases:
        assert decompose(af, order=given) == reference_decomposition(af, given)
        for heuristic in HEURISTICS:
            for seed in (None, 0, 3):
                rngs = [None if seed is None else np.random.default_rng(seed) for _ in "ab"]
                order = elimination_order(af, heuristic, rng=rngs[0])
                td = decompose(af, heuristic, rng=rngs[1])
                assert td == reference_decomposition(af, order), (af, heuristic, seed)


def test_wide_fan_out_builds_in_linear_time():
    """40,000 isolated arguments hang below one root: building, printing,
    parsing and making its decomposition nice must not be quadratic in the
    fan-out."""
    af = AF([f"a{i}" for i in range(40_000)])
    started = time.monotonic()
    td = decompose(af)
    parsed = parse_td(td.serialize())
    nice = make_nice(parsed)
    elapsed = time.monotonic() - started
    for t in (td, parsed):
        assert t.root == 39_999 and t.children[t.root] == tuple(range(39_999))
    assert nice.width() == 0
    assert elapsed < 4, f"{elapsed:.2f}s"


def test_tie_break_is_deterministic_without_rng():
    af = chain_af(6)
    orders = {tuple(elimination_order(af, "min-degree")) for _ in range(5)}
    assert len(orders) == 1


def test_rng_tie_break_still_validates():
    rnd = random.Random(32)
    af = random_paf(rnd).af
    for seed in range(5):
        td = decompose(af, rng=np.random.default_rng(seed))
        assert td.validate(af) == []


def test_self_attacks_do_not_affect_the_graph():
    af = AF(["a", "b"], [("a", "a"), ("a", "b")])
    td = decompose(af)
    assert td.validate(af) == []
    assert td.width() == 1


def test_empty_af():
    af = AF([])
    td = decompose(af)
    assert td.validate(af) == []
    nice = make_nice(td)
    assert nice.validate(af) == []
    for td in (decompose(af), decompose(af, order=[])):
        assert td.bags == {0: frozenset()} and td.root == 0
    # the inputs are checked before the one empty bag is returned
    with pytest.raises(InputError, match="unknown heuristic"):
        decompose(af, heuristic="nope")
    with pytest.raises(InputError, match="not a permutation"):
        decompose(af, order=["zz"])
    with pytest.raises(InputError, match="a given order takes no heuristic and no rng"):
        decompose(af, order=[], rng=np.random.default_rng(0))


def test_serialize_round_trip():
    af = chain_af()
    td = decompose(af)
    back = parse_td(td.serialize())
    assert isinstance(back, TreeDecomposition)
    assert back.bags == td.bags
    assert back.validate(af) == []
    nice = make_nice(td)
    nice_back = parse_td(nice.serialize())
    assert isinstance(nice_back, NiceTreeDecomposition)
    assert nice_back.validate(af) == []
    assert nice_back.serialize() == nice.serialize()


# ``paftd decompose chain5.paf --nice``: min-fill eliminates b first, then a,
# c, d and e; node ids are depth-first and edges and types follow in id order
CHAIN5_NICE = (
    "bag 0\n"
    "bag 1 a\n"
    "bag 2 a b\n"
    "bag 3 a\n"
    "bag 4 a c\n"
    "bag 5 c\n"
    "bag 6 c d\n"
    "bag 7 d\n"
    "bag 8 d e\n"
    "bag 9 e\n"
    "bag 10\n"
    "edge 1 0\n"
    "edge 2 1\n"
    "edge 3 2\n"
    "edge 4 3\n"
    "edge 5 4\n"
    "edge 6 5\n"
    "edge 7 6\n"
    "edge 8 7\n"
    "edge 9 8\n"
    "edge 10 9\n"
    "type 0 leaf\n"
    "type 1 intro:a\n"
    "type 2 intro:b\n"
    "type 3 forget:b\n"
    "type 4 intro:c\n"
    "type 5 forget:a\n"
    "type 6 intro:d\n"
    "type 7 forget:c\n"
    "type 8 intro:e\n"
    "type 9 forget:d\n"
    "type 10 forget:e\n"
)


def test_decompose_nice_output_is_pinned(capsys):
    assert run(["decompose", str(FIXTURES / "chain5.paf"), "--nice"]) == 0
    assert capsys.readouterr().out == CHAIN5_NICE


def test_validator_reports_violations():
    af = chain_af(3)
    # x1 missing from every bag, and the (x1,x2) edge uncovered
    td = TreeDecomposition({0: frozenset({"x0"}), 1: frozenset({"x2"})}, {0: (1,), 1: ()}, 0)
    assert td.validate(af) == [
        "argument x1 appears in no bag",
        "attack (x0,x1) is covered by no bag",
        "attack (x1,x2) is covered by no bag",
    ]
    # non-argument bag elements are reported in sorted order, whatever the
    # set iteration order that PYTHONHASHSEED picks
    code = (
        "from paftd import AF, TreeDecomposition\n"
        "td = TreeDecomposition({0: frozenset({'a', 'qq', 'yy', 'zz'})}, {0: ()}, 0)\n"
        "print(td.validate(AF(['a'])))\n"
    )
    src = str(Path(paftd.__file__).resolve().parents[1])
    outputs = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        outputs.add(proc.stdout.strip())
    expected = [f"bag element {x} is not an argument" for x in ("qq", "yy", "zz")]
    assert outputs == {repr(expected)}


def test_validator_catches_disconnected_occurrences():
    af = chain_af(3)
    disconnected = ["bags containing x0 are not connected"]
    cases = [
        # a chain holding x0 at both ends but not in the middle
        ({0: {"x0", "x1"}, 1: {"x1", "x2"}, 2: {"x0"}}, {0: (1,), 1: (2,), 2: ()}, disconnected),
        # two sibling subtrees hold x0, their common parent does not
        ({0: {"x1", "x2"}, 1: {"x0", "x1"}, 2: {"x0", "x1"}}, {0: (1, 2), 1: (), 2: ()}, disconnected),
        # a parent and both of its children hold x0
        ({0: {"x0", "x1"}, 1: {"x0", "x1"}, 2: {"x0", "x1", "x2"}}, {0: (1, 2), 1: (), 2: ()}, []),
    ]
    for bags, children, expected in cases:
        td = TreeDecomposition({t: frozenset(b) for t, b in bags.items()}, children, 0)
        assert td.validate(af) == expected


def test_post_order_rejects_a_node_reached_twice():
    af = AF(["a", "b", "c"], [("a", "b"), ("b", "c")])
    bags = {0: frozenset({"a", "b"}), 1: frozenset({"b", "c"}), 2: frozenset({"c"})}
    cases = [
        ({0: (1, 1), 1: ()}, 1),  # a repeated edge
        ({0: (1,), 1: (1,)}, 1),  # a cycle
        ({0: (1, 2), 1: (2,), 2: ()}, 2),  # a node below two parents
    ]
    for children, node in cases:
        td = TreeDecomposition({t: bags[t] for t in children}, children, 0)
        with pytest.raises(InputError, match=f"node {node} twice"):
            td.post_order()
        with pytest.raises(InputError, match=f"node {node} twice"):
            make_nice(td)
        assert td.validate(af) == [f"tree-decomposition reaches node {node} twice"]


def test_cycle5_td_shape_is_accepted():
    doc = parse_paf((FIXTURES / "cycle5.paf").read_text())
    td = parse_td((FIXTURES / "cycle5.td").read_text())
    assert isinstance(td, NiceTreeDecomposition)
    assert td.validate(doc.paf.af) == []
    assert td.width() == 2
    assert td.node_count() == 16


def test_parse_td_rejects_multiple_roots():
    with pytest.raises(InputError):
        parse_td("bag 0 a\nbag 1 a\n")


@pytest.mark.parametrize(
    "text, match",
    [
        ("bag 0\ntype 0 leaf\ntype 7 join\n", "undeclared bags \\[7\\]"),
        ("bag 0\ntype 0 leaf:zz\n", "'leaf:zz'"),
        ("bag 0\ntype 0 join:a\n", "'join:a'"),
        ("bag 0\ntype 0 leaf\ntype 0 join\n", "line 3: duplicate type for node 0"),
        ("bag 0 a\nbag 1\nedge 1 0 junk 5\n", "line 3: malformed TD line 'edge 1 0 junk 5'"),
        ("bag 0\nbag 1\nedge 0 1\ntype 0 leaf\n", "^nice TD is missing a type for node 1$"),
        (
            "bag 0\nbag 1 a\nbag 2\nedge 1 0\nedge 2 1\n"
            "type 0 leaf\ntype 1 intro:a junk\ntype 2 forget:a\n",
            "line 7: malformed TD line 'type 1 intro:a junk'",
        ),
    ],
    ids=[
        "undeclared-node",
        "leaf-with-argument",
        "join-with-argument",
        "repeated-type",
        "edge-trailing-tokens",
        "missing-type",
        "type-trailing-tokens",
    ],
)
def test_parse_td_rejects_malformed_type_lines(text, match):
    with pytest.raises(InputError, match=match):
        parse_td(text)


def test_introduce_type_without_argument_is_a_violation():
    td = parse_td("bag 0\nbag 1\nedge 0 1\ntype 0 intro\ntype 1 leaf\n")
    assert td.validate(AF([])) == ["introduce node 0 does not add exactly None"]


def test_unknown_node_kind_is_a_violation():
    # parse_td rejects an unknown type, so only the constructor can build one
    td = NiceTreeDecomposition({0: frozenset()}, {0: ()}, 0, {0: "bogus"}, {0: None})
    assert td.validate(AF([])) == ["node 0 has unknown kind 'bogus'"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("bag 0 a\nbag 0 b\n", "line 2: duplicate bag 0"),
        ("bag 0\nnode 1\n", "line 2: unknown directive 'node'"),
        ("# only a comment\n", "TD file declares no bags"),
        ("bag 0\nedge 0 1\n", "edge (0,1) references an undeclared bag"),
        ("bag 0\nedge 2 0\nedge 0 1\n", "edge (2,0) references an undeclared bag"),
        ("bag 0\nedge 0 1\nbag 1 a\nlink 0 1\n", "line 4: unknown directive 'link'"),
        ("bag 0\nbag 1\n", "TD must have exactly one root, found [0, 1]"),
        ("bag 0\nbag 1\nedge 0 1\nedge 1 0\n", "TD must have exactly one root, found []"),
        ("bag 0\ntype 0 leaf\ntype 3 leaf\ntype 1 leaf\n", "type lines name undeclared bags [1, 3]"),
        ("bag 0 a\nbag 1\nedge 0 1\ntype 0 forget:a\ntype 1 leaf:a\n", "unknown node type 'leaf:a' for node 1"),
        ("bag 0\ntype 0 root\n", "unknown node type 'root' for node 0"),
    ],
    ids=[
        "duplicate-bag",
        "unknown-directive",
        "no-bags",
        "undeclared-edge-end",
        "first-undeclared-edge",
        "line-error-before-edge-check",
        "two-roots",
        "no-root",
        "type-of-undeclared-bag",
        "leaf-with-argument",
        "unknown-type",
    ],
)
def test_parse_td_messages(text, message):
    with pytest.raises(InputError) as info:
        parse_td(text)
    assert str(info.value) == message


def test_parse_td_reads_an_edge_before_its_bags():
    td = parse_td("# edges first\nedge 0 2\nedge 0 1\nbag 1 a\nbag 0 a\n\nbag 2\n")
    assert td == TreeDecomposition(
        {1: frozenset({"a"}), 0: frozenset({"a"}), 2: frozenset()}, {1: (), 0: (2, 1), 2: ()}, 0
    )


def test_validator_names_a_bag_element_that_is_not_an_argument():
    td = TreeDecomposition({0: frozenset({"x0", "x1", "x2", "zz"})}, {0: ()}, 0)
    assert td.validate(chain_af(3)) == ["bag element zz is not an argument"]


# forget a, introduce a, leaf: each case breaks one of the dicts the shape
# rules read, which a library caller can build but parse_td cannot
NICE_A = {
    "bags": {0: frozenset(), 1: frozenset({"a"}), 2: frozenset()},
    "children": {0: (1,), 1: (2,), 2: ()},
    "root": 0,
    "kind": {0: "forget", 1: "intro", 2: "leaf"},
    "arg": {0: "a", 1: "a", 2: None},
}


@pytest.mark.parametrize(
    "field, value, violations",
    [
        ("root", 7, ["tree is not connected or has unreachable nodes", "root 7 is not a bag"]),
        ("children", {0: (1,), 1: (2,)}, ["node 2 has no children entry"]),
        ("arg", {0: "a", 2: None}, ["node 1 has no arg entry"]),
        ("kind", {0: "forget", 1: "intro"}, ["node 2 has no type"]),
        ("kind", {0: "forget", 1: "intro", 2: "leaf", 5: "leaf"}, ["node 5 has no bags/children/arg entry"]),
        ("children", {0: (1,), 1: (9,), 2: ()}, ["tree is not connected or has unreachable nodes"]),
    ],
    ids=[
        "root-not-a-bag",
        "no-children-entry",
        "intro-without-arg",
        "bag-without-type",
        "type-without-bag",
        "child-not-a-bag",
    ],
)
def test_a_malformed_nice_td_is_an_input_error(field, value, violations):
    paf = parse_paf("arg a 1\n").paf
    td = NiceTreeDecomposition(**{**NICE_A, field: value})
    assert td.validate(paf.af) == violations
    with pytest.raises(InputError) as info:
        solve(paf, "com", {"a"}, td=td)
    assert str(info.value) == "invalid tree-decomposition: " + "; ".join(violations)
    assert solve(paf, "com", {"a"}, td=NiceTreeDecomposition(**NICE_A)).value == 1


def _reference_violations(td, af):
    """The validator as it stood when each element's holders were listed one
    by one: its lists, in their order, are what ``validate`` must return."""
    v = _reference_tree_violations(td, af)
    if not isinstance(td, NiceTreeDecomposition):
        return v
    if td.root not in td.bags:
        v.append(f"root {td.root} is not a bag")
    elif td.bags[td.root]:
        v.append("root bag is not empty")
    for t, kind in td.kind.items():
        unread = [name for name in ("bags", "children", "arg") if t not in getattr(td, name)]
        if unread:
            v.append(f"node {t} has no {'/'.join(unread)} entry")
            continue
        bag, kids, a = td.bags[t], td.children[t], td.arg[t]
        if kind == "leaf":
            if kids:
                v.append(f"leaf node {t} has children")
            if bag:
                v.append(f"leaf node {t} has a non-empty bag")
        elif kind in ("intro", "forget"):
            name, verb = ("introduce", "add") if kind == "intro" else ("forget", "drop")
            if len(kids) != 1:
                v.append(f"{name} node {t} must have one child")
                continue
            child = td.bags.get(kids[0], frozenset())
            small, large = (child, bag) if kind == "intro" else (bag, child)
            if a is None or a in small or large != small | {a}:
                v.append(f"{name} node {t} does not {verb} exactly {a!r}")
        elif kind == "join":
            if len(kids) != 2:
                v.append(f"join node {t} must have two children")
                continue
            b1, b2 = (td.bags.get(c, frozenset()) for c in kids)
            if not bag == b1 == b2:
                v.append(f"join node {t} bags differ")
        else:
            v.append(f"node {t} has unknown kind {kind!r}")
    return v + [f"node {t} has no type" for t in td.bags if t not in td.kind]


def _reference_tree_violations(td, af):
    try:
        order = td.post_order()
    except InputError as exc:
        return [str(exc)]
    if set(order) != set(td.bags):
        return ["tree is not connected or has unreachable nodes"]
    above = {c: td.bags[t] for t in order for c in td.children.get(t, ())}
    holders, tops = {}, {}
    for t in order:
        for a in td.bags[t]:
            holders.setdefault(a, set()).add(t)
            if a not in above.get(t, ()):
                tops[a] = tops.get(a, 0) + 1
    v = [f"argument {a} appears in no bag" for a in af.arguments if a not in holders]
    v += [f"bag element {a} is not an argument" for a in sorted(holders.keys() - set(af.arguments))]
    for x, y in sorted(af.attacks):
        if holders.get(x, set()).isdisjoint(holders.get(y, ())):
            v.append(f"attack ({x},{y}) is covered by no bag")
    return v + [f"bags containing {a} are not connected" for a in af.arguments if tops.get(a, 0) > 1]


def _corrupted(td, rnd, how):
    """A copy of ``td`` with one fault of the kind ``how``."""
    bags, children = dict(td.bags), dict(td.children)
    copy = (
        NiceTreeDecomposition(bags, children, td.root, dict(td.kind), dict(td.arg))
        if isinstance(td, NiceTreeDecomposition)
        else TreeDecomposition(bags, children, td.root)
    )
    nodes = sorted(bags)
    if how == "drop":  # one bag loses an element
        t = rnd.choice([t for t in nodes if bags[t]] or nodes)
        bags[t] -= {rnd.choice(sorted(bags[t]) or ["-"])}
    elif how == "stray":  # one bag gains an argument, or a name that is none
        bags[rnd.choice(nodes)] |= {rnd.choice([*sorted(set().union(*bags.values())), "zz"])}
    elif how == "cut":  # one tree edge is gone
        parents = [t for t in nodes if children.get(t)]
        if parents:
            t = rnd.choice(parents)
            kids = list(children[t])
            kids.pop(rnd.randrange(len(kids)))
            children[t] = tuple(kids)
    elif how == "split":  # a subtree hangs below another node outside it
        parent = {c: t for t in nodes for c in children.get(t, ())}
        if parent:
            c = rnd.choice(sorted(parent))
            below, stack = set(), [c]
            while stack:
                below.add(stack[-1])
                stack.extend(children.get(stack.pop(), ()))
            target = rnd.choice([t for t in nodes if t not in below])
            children[parent[c]] = tuple(k for k in children[parent[c]] if k != c)
            children[target] = (*children.get(target, ()), c)
    return copy


def test_validate_matches_the_element_by_element_reference():
    rnd = random.Random(35)
    hows = ("drop", "stray", "cut", "split")
    seen = {how: 0 for how in hows}
    for i in range(150):
        af = random_paf(rnd, max_args=9).af
        td = decompose(af, heuristic=HEURISTICS[i % 2])
        for base in (td, make_nice(td)):
            assert base.validate(af) == _reference_violations(base, af) == []
            for how in hows:
                bad = _corrupted(base, rnd, how)
                want = _reference_violations(bad, af)
                assert bad.validate(af) == want, (how, bad)
                seen[how] += bool(want)
    # every kind of fault was caught often enough to tell the lists apart
    assert min(seen.values()) > 100, seen
