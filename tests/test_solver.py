import copy
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import paftd
from paftd import (
    AF,
    PAF,
    BudgetExceeded,
    GridSpec,
    InputError,
    decompose,
    generate_grid,
    grid_elimination_order,
    make_nice,
    p_ext,
    p_ext_oracle,
    parse_paf,
    parse_td,
    solve,
)
from paftd import solver
from paftd.cli import run
from paftd.core import exact_text

from conftest import FIXTURES, dense_paf, random_paf, random_subset


@pytest.fixture(scope="module")
def cycle5():
    return parse_paf((FIXTURES / "cycle5.paf").read_text()).paf


def test_cycle5_complete(cycle5):
    assert p_ext(cycle5, "com", {"a", "c", "e"}) == Fraction(18, 25)


def test_readme_library_example_runs():
    readme = (FIXTURES.parent.parent / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})


def test_cycle5_all_semantics_match_oracle(cycle5):
    for sigma in ("adm", "com", "stb"):
        S = {"a", "c", "e"}
        assert p_ext(cycle5, sigma, S) == p_ext_oracle(cycle5, sigma, S)


def test_empty_set_is_admissible_everywhere():
    rnd = random.Random(41)
    for _ in range(10):
        paf = random_paf(rnd, max_args=5)
        assert p_ext(paf, "adm", set()) == 1


def test_argumentless_paf():
    paf = PAF(AF([]), {}, {})
    assert p_ext(paf, "adm", set()) == 1
    assert p_ext(paf, "stb", set()) == 1


def test_conflicting_set_has_probability_zero():
    paf = PAF.certain(AF(["a", "b"], [("a", "b")]))
    assert p_ext(paf, "com", {"a", "b"}) == 0


def test_result_is_a_probability():
    rnd = random.Random(42)
    for _ in range(20):
        paf = random_paf(rnd, max_args=6)
        S = random_subset(rnd, paf)
        for sigma in ("adm", "com", "stb"):
            v = p_ext(paf, sigma, S)
            assert 0 <= v <= 1


def test_oracle_equivalence_small():
    rnd = random.Random(43)
    for _ in range(40):
        paf = random_paf(rnd, max_args=6)
        S = random_subset(rnd, paf)
        for sigma in ("adm", "com", "stb"):
            assert p_ext(paf, sigma, S) == p_ext_oracle(paf, sigma, S)


def test_float_mode_tracks_rational():
    rnd = random.Random(44)
    for _ in range(20):
        paf = random_paf(rnd, max_args=6)
        S = random_subset(rnd, paf)
        exact = p_ext(paf, "com", S)
        approx = p_ext(paf, "com", S, mode="float")
        assert abs(approx - float(exact)) <= 1e-9


def test_float_answer_does_not_depend_on_hash_seed():
    # set iteration order follows PYTHONHASHSEED; the float answer must not,
    # and it is the exact answer rounded once
    paf, query = generate_grid(GridSpec(3, 6, 1))
    S = query | {a for a in paf.af.arguments if paf.arg_certain(a)}
    exact = solve(paf, "com", S).value
    code = (
        "from paftd import solve\n"
        "from paftd.generator import GridSpec, generate_grid\n"
        "paf, query = generate_grid(GridSpec(3, 6, 1))\n"
        "S = query | {a for a in paf.af.arguments if paf.arg_certain(a)}\n"
        "print(repr(solve(paf, 'com', S, mode='float').value))\n"
    )
    src = str(Path(paftd.__file__).resolve().parents[1])
    values = set()
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
        values.add(proc.stdout.strip())
    assert values == {repr(float(exact))}


def test_long_chain_solves_without_recursion_limit():
    names = [f"x{i:04d}" for i in range(1500)]
    paf = PAF.certain(AF(names, list(zip(names, names[1:]))))
    # the certain chain's only complete extension: the 1st, 3rd, 5th, ... argument
    res = solve(paf, "com", set(names[::2]), td=decompose(paf.af, order=names))
    assert res.value == 1


def test_float_is_rounded_once_near_the_bottom_of_the_double_range():
    # the chain with probabilities (i%9+1)/10 and (i%7+2)/10 and every other
    # argument in S; a product of rounded float factors drifts in the last digits
    names = [f"c{i:04d}" for i in range(1150)]
    attacks = list(zip(names, names[1:]))
    paf = PAF(
        AF(names, attacks),
        {a: Fraction(i % 9 + 1, 10) for i, a in enumerate(names)},
        {r: Fraction(i % 7 + 2, 10) for i, r in enumerate(attacks)},
    )
    S = set(names[::2])
    exact, value = (
        solve(paf, "com", S, mode=mode, td=decompose(paf.af, order=names)).value
        for mode in ("rational", "float")
    )
    assert value == float(exact) == 1.5358359860221672e-300


def test_coprime_denominators_match_oracle():
    # a 3x6 grid whose 14 uncertain elements take the co-prime denominators
    # 3, 7, 11, 13 and 97, so one DP table meets several of them
    paf, _ = generate_grid(GridSpec(3, 6, 1))
    prob = {}
    for i, e in enumerate(list(paf.af.arguments) + sorted(paf.af.attacks)):
        d = (3, 7, 11, 13, 97)[i % 5]
        prob[e] = Fraction(i % (d - 1) + 1, d) if i % 3 == 0 else Fraction(1)
    paf = PAF(paf.af, {a: prob[a] for a in paf.af.arguments}, {r: prob[r] for r in paf.af.attacks})
    # a stable extension of the all-present framework: every answer is in (0, 1)
    S = {"a1_1", "a1_2", "a1_5", "a2_2", "a2_3", "a2_5", "a3_2", "a3_3", "a3_4", "a3_6"}
    for sigma in ("adm", "com", "stb"):
        exact = p_ext_oracle(paf, sigma, S)
        assert 0 < exact < 1
        assert solve(paf, sigma, S).value == exact
        assert solve(paf, sigma, S, mode="float").value == float(exact)


def test_rational_rows_carry_int_numerators(cycle5, monkeypatch):
    # every DP step sees and returns plain int masses and leaves its input
    # tables as it found them (an introduce shares its child's groups); the
    # answer is the one Fraction a solve builds
    built, steps = [], []

    def counting_fraction(*args):
        built.append(args)
        return Fraction(*args)

    def checked(step):
        def wrapper(rows, *rest):
            inputs = [rows, *(r for r in rest if isinstance(r, dict))]
            before = copy.deepcopy(inputs)
            out = step(rows, *rest)
            steps.append(step.__name__)
            assert inputs == before
            masses = [p for table in (*inputs, out) for group in table.values() for p in group.values()]
            assert all(type(p) is int for p in masses)
            return out

        return wrapper

    monkeypatch.setattr(solver, "Fraction", counting_fraction)
    for name in ("_introduce", "_forget", "_join"):
        monkeypatch.setattr(solver, name, checked(getattr(solver, name)))
    td = parse_td((FIXTURES / "cycle5.td").read_text())
    assert solve(cycle5, "com", {"a", "c", "e"}, td=td).value == Fraction(18, 25)
    assert len(built) == 1
    assert set(steps) == {"_introduce", "_forget", "_join"}


def test_supplied_td_is_validated(cycle5):
    td = parse_td((FIXTURES / "cycle5.td").read_text())
    assert solve(cycle5, "com", {"a", "c", "e"}, td=td).value == Fraction(18, 25)
    other = make_nice(decompose(AF(["a", "b"])))
    with pytest.raises(InputError):
        solve(cycle5, "com", {"a"}, td=other)
    # a plain decomposition is validated, then made nice
    plain = decompose(cycle5.af)
    assert solve(cycle5, "com", {"a", "c", "e"}, td=plain).value == Fraction(18, 25)
    with pytest.raises(InputError, match="argument a appears in no bag"):
        solve(cycle5, "com", {"a"}, td=decompose(AF(["b", "c", "d", "e"])))


def test_golden_trace_rows(cycle5):
    td = parse_td((FIXTURES / "cycle5.td").read_text())
    res = solve(cycle5, "com", {"a", "c", "e"}, td=td, trace=True)
    value, trace = res.value, res.trace
    assert value == Fraction(18, 25)
    assert "node=1 F=(a;) L=(a;;) lw=(;) p=4/5" in trace
    assert (
        "node=13 F=(c,d;c>d,d>c) L=(c;d;) lw=(d;) p=18/25" in trace
    )
    assert (
        "node=12 F=(a,c,d;a>d,c>d,d>a,d>c) L=(a,c;d;) lw=(d;) p=63/125" in trace
    )


CYCLE5_TRACE = (
    "node=0 F=(;) L=(;;) lw=(;) p=1",
    "node=1 F=(a;) L=(a;;) lw=(;) p=4/5",
    "node=2 F=(a,b;a>b,b>a) L=(a;b;) lw=(b;) p=14/25",
    "node=2 F=(a,b;b>a) L=(a;b;) lw=(;) p=6/25",
    "node=3 F=(a,b,c;a>b,b>a,b>c,c>b) L=(a,c;b;) lw=(b;) p=63/125",
    "node=3 F=(a,b,c;b>a,b>c,c>b) L=(a,c;b;) lw=(b;) p=27/125",
    "node=4 F=(a,c;) L=(a,c;;) lw=(;) p=18/25",
    "node=5 F=(a,c,d;a>d,c>d,d>a,d>c) L=(a,c;d;) lw=(d;) p=18/25",
    "node=6 F=(;) L=(;;) lw=(;) p=1",
    "node=7 F=(d;) L=(;d;) lw=(;) p=1",
    "node=7 F=(d;) L=(;;d) lw=(;) p=1",
    "node=8 F=(d,e;) L=(e;d;) lw=(;) p=7/20",
    "node=8 F=(d,e;) L=(e;;d) lw=(;) p=7/20",
    "node=8 F=(d,e;d>e) L=(e;d;) lw=(;) p=7/20",
    "node=8 F=(d,e;d>e,e>d) L=(e;d;) lw=(d;) p=3/20",
    "node=8 F=(d,e;e>d) L=(e;d;) lw=(d;) p=3/20",
    "node=9 F=(d;) L=(;d;) lw=(;) p=7/10",
    "node=9 F=(d;) L=(;d;) lw=(d;) p=3/10",
    "node=9 F=(d;) L=(;;d) lw=(;) p=7/20",
    "node=10 F=(a,d;a>d,d>a) L=(a;d;) lw=(d;) p=14/25",
    "node=10 F=(a,d;a>d,d>a) L=(a;d;) lw=(d;) p=6/25",
    "node=11 F=(a,c,d;a>d,c>d,d>a,d>c) L=(a,c;d;) lw=(d;) p=63/125",
    "node=11 F=(a,c,d;a>d,c>d,d>a,d>c) L=(a,c;d;) lw=(d;) p=27/125",
    "node=12 F=(a,c,d;a>d,c>d,d>a,d>c) L=(a,c;d;) lw=(d;) p=63/125",
    "node=12 F=(a,c,d;a>d,c>d,d>a,d>c) L=(a,c;d;) lw=(d;) p=27/125",
    "node=13 F=(c,d;c>d,d>c) L=(c;d;) lw=(d;) p=18/25",
    "node=14 F=(d;) L=(;d;) lw=(d;) p=18/25",
    "node=15 F=(;) L=(;;) lw=(;) p=18/25",
)


def test_full_trace_rows_in_order(cycle5):
    # every line of the fixture replay, in the order the dump emits them
    td = parse_td((FIXTURES / "cycle5.td").read_text())
    res = solve(cycle5, "com", {"a", "c", "e"}, td=td, trace=True)
    assert res.value == Fraction(18, 25)
    assert res.trace == list(CYCLE5_TRACE)


def test_tied_trace_lines_run_from_the_largest_mass_down(cycle5):
    # the min-fill decomposition of cycle5 has lines equal but for their mass
    trace = solve(cycle5, "com", {"a", "c", "e"}, trace=True).trace
    split = [line.rsplit(" p=", 1) for line in trace]
    ties = [(p1, p2) for (f1, p1), (f2, p2) in zip(split, split[1:]) if f1 == f2]
    assert ties
    assert all(Fraction(p1) >= Fraction(p2) for p1, p2 in ties), ties


def test_introduce_at_most_triples_its_child(cycle5):
    # an introduce adds the absent row and one present row per label choice:
    # the attacks of the new argument are decided at a forget
    spec = GridSpec(4, 30, 2)
    grid, query = generate_grid(spec)
    cases = [
        (cycle5, {"a", "c", "e"}, parse_td((FIXTURES / "cycle5.td").read_text())),
        (grid, query, make_nice(decompose(grid.af, order=grid_elimination_order(spec)))),
    ]
    for paf, S, td in cases:
        stats = solve(paf, "com", S, td=td).node_stats
        for t, node in stats.items():
            if node.kind == "intro":
                assert node.rows <= 3 * stats[td.children[t][0]].rows, t


def reference_forget(rows, a, decided, ins, ctx):
    """A forget that decides every group's attacks anew, one choice at a time."""
    merged = {}
    bit = ctx.bit[a]
    outside_s = a not in ctx.S
    for (present, und), group in rows.items():
        needs = outside_s and present & bit and (ctx.sigma == "com" or not und & bit)
        target = merged.setdefault((present & ~bit, und & ~bit), {})
        for _, w_bits, factor in ctx.choices(a, present, und, ins, decided):
            for w, p in group.items():
                new_w = w | w_bits
                if needs and not new_w & bit:
                    continue
                target[new_w & ~bit] = target.get(new_w & ~bit, 0) + p * factor
    return {structure: group for structure, group in merged.items() if group}


def test_forget_equals_the_per_group_reference(monkeypatch):
    forget, forgets = solver._forget, []

    def checked(rows, a, decided, ins, ctx):
        out = forget(rows, a, decided, ins, ctx)
        assert out == reference_forget(rows, a, decided, ins, ctx), a
        forgets.append(a)
        return out

    monkeypatch.setattr(solver, "_forget", checked)
    rnd = random.Random(46)
    for _ in range(100):
        paf = random_paf(rnd)
        S = random_subset(rnd, paf)
        for sigma in ("adm", "com", "stb"):
            solve(paf, sigma, S)
    assert forgets


def test_forget_decides_each_local_pattern_once(monkeypatch):
    # the decisions read only a's bit and its decided neighbours' bits
    choices, forget, calls = solver._Context.choices, solver._forget, []

    def counted(ctx, a, present, und, ins, decided):
        calls.append((present, und))
        return choices(ctx, a, present, und, ins, decided)

    def checked(rows, a, decided, ins, ctx):
        calls.clear()
        out = forget(rows, a, decided, ins, ctx)
        local = ctx.bit[a]
        for r in decided:
            local |= r[1]
        patterns = {(present & local, und & local) for present, und in rows}
        assert len(calls) == len(set(calls)) and set(calls) <= patterns, a
        return out

    monkeypatch.setattr(solver._Context, "choices", counted)
    monkeypatch.setattr(solver, "_forget", checked)
    spec = GridSpec(4, 30, 2)
    grid, query = generate_grid(spec)
    td = make_nice(decompose(grid.af, order=grid_elimination_order(spec)))
    for sigma in ("adm", "com", "stb"):
        solve(grid, sigma, query, td=td)


def test_each_argument_keeps_one_slot_apart_from_its_bag_mates(cycle5):
    # slots stand in for argument ranks: width + 1 of them, distinct in every bag
    cases = [(cycle5, parse_td((FIXTURES / "cycle5.td").read_text()))]
    for spec in (GridSpec(4, 30, 2), GridSpec(2, 300, 1)):
        grid, _ = generate_grid(spec)
        cases.append((grid, make_nice(decompose(grid.af, order=grid_elimination_order(spec)))))
    rnd = random.Random(48)
    for _ in range(30):
        paf = random_paf(rnd)
        for heuristic in ("min-fill", "min-degree"):
            for seed in (None, 0, 3):
                rng = None if seed is None else np.random.default_rng(seed)
                cases.append((paf, make_nice(decompose(paf.af, heuristic=heuristic, rng=rng))))
    for paf, td in cases:
        bit = solver._Context(paf, frozenset(), "com", td, td.post_order()).bit
        assert bit.keys() == set(paf.af.arguments)
        assert all(0 < b < 1 << td.width() + 1 and b & (b - 1) == 0 for b in bit.values())
        for t, bag in td.bags.items():
            assert len({bit[a] for a in bag}) == len(bag), t


def test_every_mask_spans_the_width_not_the_arguments(monkeypatch):
    masks = []

    def recorded(step):
        def wrapper(*args):
            out = step(*args)
            for table in (out, *(x for x in args if isinstance(x, dict))):
                for (present, und), group in table.items():
                    masks.extend((present, und, *group))
            return out

        return wrapper

    for name in ("_introduce", "_forget", "_join"):
        monkeypatch.setattr(solver, name, recorded(getattr(solver, name)))
    spec = GridSpec(4, 30, 2)  # the dp-replay shape: a sweep-order decomposition
    grid, query = generate_grid(spec)
    replay = make_nice(decompose(grid.af, order=grid_elimination_order(spec)))
    long_grid, long_query = generate_grid(GridSpec(2, 300, 1))
    for paf, S, td in ((grid, query, replay), (long_grid, long_query, None)):
        masks.clear()
        width = solve(paf, "com", S, td=td).width
        assert masks and max(masks) < 1 << width + 1, (len(paf.af.arguments), width)


@pytest.mark.parametrize("heuristic", ["min-fill", "min-degree"])
def test_a_heuristic_reaches_solve_only_as_a_td(heuristic):
    """``solve`` builds the min-fill decomposition when given none; any
    heuristic's decomposition may be passed plain or nice, to the same result."""
    grid, S = generate_grid(GridSpec(3, 8, 5))  # min-fill and min-degree differ here
    td = decompose(grid.af, heuristic=heuristic)
    assert (td == decompose(grid.af)) == (heuristic == "min-fill")
    given = solve(grid, "com", S, td=td, trace=True)
    if heuristic == "min-fill":
        assert solve(grid, "com", S, trace=True) == given
    assert solve(grid, "com", S, td=make_nice(td), trace=True) == given
    assert given.value == solve(grid, "com", S).value


def test_trace_lists_only_the_witnesses_a_check_reads():
    # b is out with an in-labeled attacker a and an undecided attacker c: only
    # a is b's witness, and an undecided attacker is read only on an undecided
    # argument under com, here c's own attack
    paf = PAF.certain(AF(["a", "b", "c"], [("a", "b"), ("c", "b"), ("c", "c")]))
    com = solve(paf, "com", {"a"}, trace=True).trace
    assert "node=4 F=(b,c;c>b,c>c) L=(;b;c) lw=(b;c) p=1" in com
    for line in solve(paf, "adm", {"a"}, trace=True).trace:
        assert re.search(r" lw=\([^;]*;\) ", line), line


def test_root_table_is_bag_local_empty(cycle5):
    res = solve(cycle5, "com", {"a", "c", "e"}, trace=True)
    root_rows = [l for l in res.trace if l.startswith(f"node={max(res.node_stats)} ")]
    assert len(root_rows) <= 1


def _star(leaves: int) -> PAF:
    # width 1: a centre c with c <-> l_i and l_i -> l_i, everything at 1/2 and
    # every attack certain; its joins stay small only if pairs of rows that
    # meet on one state merge
    names = ["c"] + [f"l{i}" for i in range(leaves)]
    attacks = [r for l in names[1:] for r in (("c", l), (l, "c"), (l, l))]
    half = Fraction(1, 2)
    return PAF(AF(names, attacks), {a: half for a in names}, {r: 1 for r in attacks})


def test_node_stats_respect_theoretic_bound(cycle5):
    # one row per (present, und, w) state: a bag argument outside S is absent,
    # out with w 0 or 1, or undecided with w 0 or 1 under com (0 only under
    # adm, never under stb), and a member of S is present with no bit; 9 per
    # argument is the loose bound
    spec = GridSpec(4, 30, 2)
    grid, query = generate_grid(spec)
    cases = [
        (cycle5, {"a", "c", "e"}, make_nice(decompose(cycle5.af))),
        (_star(12), set(), make_nice(decompose(_star(12).af))),
        (grid, query, make_nice(decompose(grid.af, order=grid_elimination_order(spec)))),
    ]
    rnd = random.Random(45)
    for _ in range(100):
        paf = random_paf(rnd)
        cases.append((paf, random_subset(rnd, paf), make_nice(decompose(paf.af))))
    for paf, S, td in cases:
        for sigma, states in (("com", 5), ("adm", 4), ("stb", 3)):
            for t, stats in solve(paf, sigma, S, td=td).node_stats.items():
                assert stats.rows <= 9**stats.bag_size
                assert stats.rows <= prod(1 if x in S else states for x in td.bags[t]), (sigma, t)
    star = _star(10)
    assert solve(star, "com", set()).value == p_ext_oracle(star, "com", set())


def test_deadline_is_enforced(cycle5):
    with pytest.raises(BudgetExceeded):
        solve(cycle5, "com", {"a", "c", "e"}, deadline=0.0)


def test_cycle5_peels_to_the_constant_factor(cycle5, monkeypatch):
    # b and d are attacked by S = {a, c, e}, so no argument can be undecided:
    # 18/25 is C * prod n_b alone, with no table built
    S = {"a", "c", "e"}
    num, den, factors = solver._factors(cycle5, S)
    assert solver._peel(cycle5, factors) == set()
    peeled = factors.values()
    assert Fraction(num * prod(n for n, _, _ in peeled), den * prod(d for _, _, d in peeled)) == Fraction(18, 25)

    def no_sum(*args):
        raise AssertionError("the three-state sum ran")

    monkeypatch.setattr(solver, "_signed_sum", no_sum)
    value, td = solver.three_state(cycle5, S)
    assert value == Fraction(18, 25)
    assert (td.width(), td.node_count()) == (2, 14)  # the DP's decomposition, before the peel


def test_peel_repeats_until_every_argument_left_has_an_attacker_left():
    half = Fraction(1, 2)

    def live(attacks, S=()):
        names = sorted({x for att in attacks for x in att})
        paf = PAF(AF(names, attacks), dict.fromkeys(names, half), dict.fromkeys(attacks, half))
        return solver._peel(paf, solver._factors(paf, set(S))[2])

    # a chain unravels from its unattacked end; a cycle, a self-attack and
    # what they reach stay
    assert live([("a", "b"), ("b", "c")]) == set()
    assert live([("a", "b"), ("b", "a"), ("b", "c"), ("d", "c")]) == {"a", "b", "c"}
    assert live([("x", "x"), ("x", "y")]) == {"x", "y"}
    # u_b = 0 comes first: a certain attack from S = {s} leaves b out whenever
    # it is present, and then c, attacked by b alone, has no attacker left
    paf = PAF(AF(["s", "b", "c"], [("s", "b"), ("b", "c"), ("c", "b")]),
              {"s": 1, "b": half, "c": half}, {("s", "b"): 1, ("b", "c"): half, ("c", "b"): half})
    assert solver._peel(paf, solver._factors(paf, {"s"})[2]) == set()


def _replay_grid():
    """The 4x30 seed-2 grid, S its query plus every certain argument, and its
    sweep-order nice TD."""
    spec = GridSpec(4, 30, 2)
    paf, query = generate_grid(spec)
    S = query | {a for a in paf.af.arguments if paf.arg_certain(a)}
    return paf, S, make_nice(decompose(paf.af, order=grid_elimination_order(spec)))


def test_three_state_replays_a_td_whose_bags_hold_peeled_arguments(tmp_path, capsys):
    paf, S, td = _replay_grid()
    live = solver._peel(paf, solver._factors(paf, S)[2])
    peeled = set(paf.af.arguments) - S - live
    assert live and peeled  # the TD's bags hold both; the engine skips the peeled
    value, used = solver.three_state(paf, S, td=td)
    assert used is td
    assert value == solve(paf, "com", S, td=td).exact
    paf_file, td_file = tmp_path / "grid.paf", tmp_path / "grid.td"
    paf_file.write_text(paftd.serialize_paf(paf, query_set=S))
    td_file.write_text(td.serialize())
    records = []
    for extra in ((), ("--trace",)):
        argv = ["solve", str(paf_file), "--semantics", "complete", "--td-file", str(td_file), *extra]
        assert run(argv) == 0
        records.append(json.loads(capsys.readouterr().out))
    untraced, traced = records
    assert untraced["answer"] == traced["answer"] == exact_text(value)
    assert (untraced["width"], untraced["nodes"], untraced["preprocess"]) == (traced["width"], traced["nodes"], "off")
    assert (untraced["width"], untraced["nodes"]) == (td.width(), td.node_count())


def test_three_state_checks_the_deadline_between_nodes(monkeypatch):
    paf, S, td = _replay_grid()
    assert solver._peel(paf, solver._factors(paf, S)[2])
    with pytest.raises(BudgetExceeded):
        solver.three_state(paf, S, td=td, deadline=0.0)
    # a clock that passes the first checks and then jumps past the deadline
    ticks = []

    def clock():
        ticks.append(None)
        return 0.0 if len(ticks) < 10 else 2.0

    monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=clock))
    with pytest.raises(BudgetExceeded):
        solver.three_state(paf, S, td=td, deadline=1.0)
    assert len(ticks) == 10


def test_a_dense_complete_query_answers_in_bounded_memory(tmp_path):
    # n=30, d=0.2, u=10: width 16, so a bag holds 3**17 N/T/Q rows unless
    # the introduce leaves out the states of weight 0 (every certain
    # argument has N = 0 with S empty) and the rows certain attacks kill
    resource = pytest.importorskip("resource")
    path = tmp_path / "dense30.paf"
    path.write_text(paftd.serialize_paf(dense_paf(30, 0.2, 10)))
    src = str(Path(paftd.__file__).resolve().parents[1])

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "paftd", "solve", str(path), "--semantics", "complete", "--set", ""],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=limit_memory,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["answer"] == "1"


def test_unsupported_semantics_rejected(cycle5):
    with pytest.raises(InputError):
        solve(cycle5, "grd", {"a"})
    with pytest.raises(InputError, match="^semantics 'grd' is not supported by the DP solver$"):
        p_ext(cycle5, "grd", {"a"})


def test_unknown_mode_is_rejected_before_the_dp_runs(cycle5, monkeypatch):
    def no_dp(*args):
        raise AssertionError("the DP ran")

    monkeypatch.setattr(solver, "_introduce", no_dp)
    with pytest.raises(InputError, match="^unknown arithmetic mode 'decimal'$"):
        solve(cycle5, "com", {"a", "c", "e"}, mode="decimal")
