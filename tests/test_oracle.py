import ast
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import paftd
from paftd import (
    AF,
    PAF,
    BudgetExceeded,
    CapacityError,
    GridSpec,
    InputError,
    Subframework,
    count_acc,
    count_ext,
    enumerate_subframeworks,
    extensions,
    generate_grid_document,
    grounded_extension,
    p_acc_oracle,
    p_ext_oracle,
    parse_paf,
    subframework_probability,
)
from paftd import oracle
from paftd.oracle import ORACLE_SEMANTICS, _Scenario
from paftd.paffile import serialize_paf

from conftest import COPRIME, FIXTURES, coprime, random_paf, random_subset, tenth


@pytest.fixture(scope="module")
def cycle5():
    return parse_paf((FIXTURES / "cycle5.paf").read_text()).paf


def test_scenario_probabilities_sum_to_one():
    rnd = random.Random(3)
    for _ in range(20):
        paf = random_paf(rnd, max_args=5)
        total = sum(p for _, p in enumerate_subframeworks(paf))
        assert total == 1


def test_enumeration_agrees_with_subframework_probability():
    rnd = random.Random(4)
    paf = random_paf(rnd, max_args=5)
    for sub, p in enumerate_subframeworks(paf):
        assert subframework_probability(paf, sub) == p


def test_cycle5_has_24_subframeworks(cycle5):
    assert sum(1 for _ in enumerate_subframeworks(cycle5)) == 24


def test_p_ext_matches_direct_summation():
    rnd = random.Random(9)
    for _ in range(15):
        paf = random_paf(rnd, max_args=4, max_uncertain=7)
        S = random_subset(rnd, paf)
        for sigma in ("adm", "com", "stb", "grd"):
            expected = Fraction(0)
            for sub, p in enumerate_subframeworks(paf):
                if S in extensions(sub.to_af(), sigma):
                    expected += p
            assert p_ext_oracle(paf, sigma, S) == expected


def test_p_acc_matches_direct_summation():
    rnd = random.Random(10)
    for _ in range(10):
        paf = random_paf(rnd, max_args=4, max_uncertain=7)
        a = paf.af.arguments[0]
        for sigma in ("adm", "com", "stb", "grd"):
            expected = Fraction(0)
            for sub, p in enumerate_subframeworks(paf):
                if any(a in ext for ext in extensions(sub.to_af(), sigma)):
                    expected += p
            assert p_acc_oracle(paf, sigma, a) == expected


def test_acceptance_dominates_extension_probability():
    rnd = random.Random(12)
    for _ in range(10):
        paf = random_paf(rnd, max_args=5)
        S = random_subset(rnd, paf)
        if not S:
            continue
        a = next(iter(S))
        for sigma in ("adm", "com", "stb"):
            assert p_acc_oracle(paf, sigma, a) >= p_ext_oracle(paf, sigma, S)


def test_counting_on_certain_instance():
    af = AF(["a", "b"], [("a", "b")])
    paf = PAF.certain(af)
    assert count_ext(paf, "com", {"a"}) == 1
    assert count_ext(paf, "com", {"b"}) == 0
    assert count_acc(paf, "stb", "a") == 1


def test_capacity_cap():
    names = [f"x{i}" for i in range(31)]
    paf = PAF(AF(names), {a: Fraction(1, 2) for a in names}, {})
    with pytest.raises(CapacityError):
        p_ext_oracle(paf, "com", set())
    small = PAF(AF(names[:5]), {a: Fraction(1, 2) for a in names[:5]}, {})
    with pytest.raises(CapacityError):
        p_ext_oracle(small, "adm", set(), cap=4)
    assert p_ext_oracle(small, "adm", set(), cap=5) == 1


def test_deadline_stops_the_enumeration():
    # 10 uncertain arguments, x0 required: 512 scenarios, past the first deadline check
    names = [f"x{i}" for i in range(10)]
    paf = PAF(AF(names), {a: Fraction(1, 2) for a in names}, {})
    with pytest.raises(BudgetExceeded):
        p_ext_oracle(paf, "com", {"x0"}, deadline=0.0)


def test_cycle5_oracle_values(cycle5):
    S = {"a", "c", "e"}
    assert p_ext_oracle(cycle5, "com", S) == Fraction(18, 25)
    assert p_ext_oracle(cycle5, "stb", S) == Fraction(18, 25)
    assert p_acc_oracle(cycle5, "com", "e") == Fraction(4923, 5000)
    assert p_acc_oracle(cycle5, "grd", "e") == Fraction(1, 2)


# (entry point, a query that never holds, one that holds when b is present,
#  its result, and a query naming an unknown argument)
ENTRY_POINTS = [
    (p_ext_oracle, {"s"}, {"b"}, Fraction(1, 2), {"zz"}),
    (p_acc_oracle, "s", "b", Fraction(1, 2), "zz"),
    (count_ext, {"s"}, {"b"}, 1, {"zz"}),
    (count_acc, "s", "b", 1, "zz"),
]


@pytest.mark.parametrize("fn, never, hit, expected, unknown", ENTRY_POINTS)
def test_entry_point_contract(fn, never, hit, expected, unknown):
    # s attacks itself, so it is never accepted; b is present with probability 1/2
    af = AF(["a", "b", "s"], [("b", "a"), ("s", "s")])
    paf = PAF(af, {"a": 1, "b": Fraction(1, 2), "s": 1}, {("b", "a"): 1, ("s", "s"): 1})
    kind = Fraction if fn.__name__.startswith("p_") else int
    for query, want in ((never, 0), (hit, expected)):
        result = fn(paf, "com", query)
        assert result == want
        assert type(result) is kind
    with pytest.raises(InputError):
        fn(paf, "com", unknown)
    with pytest.raises(InputError):
        fn(paf, "pref", hit)

    names = ["b"] + [f"x{i}" for i in range(30)]
    big = PAF(AF(names), {a: Fraction(1, 2) for a in names}, {})
    with pytest.raises(CapacityError):
        fn(big, "com", unknown)
    # b's ancestors hold one uncertain element, but the cap counts the instance's 31
    for sigma in ORACLE_SEMANTICS:
        with pytest.raises(CapacityError):
            fn(big, sigma, hit)
    with pytest.raises(InputError, match="semantics"):
        fn(big, "pref", unknown)


def test_every_export_resolves():
    for name in paftd.__all__:
        assert getattr(paftd, name) is not None, name


def _reference_scenarios(paf):
    """The oracle's enumeration with one Fraction per element per scenario:
    (present arguments, present attacks, probability), in the oracle's order.
    Per argument choice, the r-th attack pattern is ``high << B | (low ^ low
    >> 1)`` for ``high, low = divmod(r, 2**B)``, B the lesser of ``_BLOCK``
    and the number of uncertain attacks between present arguments: the first
    B attacks walk in reflected Gray order within each pattern of the rest."""
    certain_args = frozenset(a for a in paf.af.arguments if paf.arg_certain(a))
    u_args = paf.uncertain_args()
    all_atts = sorted(paf.af.attacks)
    for amask in range(1 << len(u_args)):
        present = set(certain_args)
        p_args = Fraction(1)
        for i, a in enumerate(u_args):
            if amask >> i & 1:
                present.add(a)
                p_args *= paf.arg_prob[a]
            else:
                p_args *= 1 - paf.arg_prob[a]
        present = frozenset(present)
        possible = [r for r in all_atts if r[0] in present and r[1] in present]
        forced = [r for r in possible if paf.att_certain(r)]
        u_atts = [r for r in possible if not paf.att_certain(r)]
        B = min(oracle._BLOCK, len(u_atts))
        for count in range(1 << len(u_atts)):
            high, low = divmod(count, 1 << B)
            rmask = high << B | (low ^ low >> 1)
            atts = list(forced)
            p = p_args
            for i, r in enumerate(u_atts):
                if rmask >> i & 1:
                    atts.append(r)
                    p *= paf.att_prob[r]
                else:
                    p *= 1 - paf.att_prob[r]
            yield present, frozenset(atts), p


def _bitmask_view(index, present, atts):
    """A `_Scenario` built from names, without its constructor, whose
    signature is not part of what the reference pins down."""
    view = object.__new__(_Scenario)
    view.present = sum(1 << index[a] for a in present)
    view.att_of = [0] * len(index)
    view.tgt_of = [0] * len(index)
    for x, y in atts:
        view.att_of[index[y]] |= 1 << index[x]
        view.tgt_of[index[x]] |= 1 << index[y]
    return view


def test_integer_weights_match_the_fraction_reference():
    # tenths, and co-prime denominators with n != d - n
    for draw, seed in ((tenth, 15), (coprime, 17)):
        rnd = random.Random(seed)
        for _ in range(300):
            paf = random_paf(rnd, max_args=6, max_uncertain=10, draw=draw)
            index = {a: i for i, a in enumerate(paf.af.arguments)}
            reference = list(_reference_scenarios(paf))
            assert list(enumerate_subframeworks(paf)) == [
                (Subframework(present, atts), p) for present, atts, p in reference
            ]
            views = [(_bitmask_view(index, present, atts), p) for present, atts, p in reference]
            S = random_subset(rnd, paf)
            a = rnd.choice(paf.af.arguments)
            s_mask, a_bit = sum(1 << index[x] for x in S), 1 << index[a]
            for sigma in ORACLE_SEMANTICS:
                ext = [p for view, p in views if view.is_extension(s_mask, sigma)]
                acc = [p for view, p in views if view.accepts(a_bit, sigma)]
                assert p_ext_oracle(paf, sigma, S) == sum(ext, Fraction(0))
                assert count_ext(paf, sigma, S) == len(ext)
                assert p_acc_oracle(paf, sigma, a) == sum(acc, Fraction(0))
                assert count_acc(paf, sigma, a) == len(acc)


def _block_split_paf(probs=tuple(Fraction(k, 10) for k in range(1, 10))):
    """Certain a0..a5 with ``_BLOCK + 3`` uncertain attacks among them, with
    the probabilities ``probs`` in turn, so every argument choice splits its
    attack counter at the block, plus two uncertain arguments: u0 adds an
    uncertain attack when present, u1 only certain ones."""
    names = [f"a{i}" for i in range(6)]
    pairs = [(x, y) for x in names for y in names if x != y][: oracle._BLOCK + 3]
    af = AF([*names, "u0", "u1"], [*pairs, ("u0", "a0"), ("a1", "u0"), ("u1", "a2")])
    arg_prob = {a: 1 for a in names} | {"u0": Fraction(2, 5), "u1": Fraction(7, 10)}
    att_prob = {r: probs[i % len(probs)] for i, r in enumerate(pairs)}
    att_prob |= {("u0", "a0"): Fraction(1, 3), ("a1", "u0"): 1, ("u1", "a2"): 1}
    return PAF(af, arg_prob, att_prob)


def test_scenarios_across_the_block_split():
    for paf in (_block_split_paf(), _block_split_paf(COPRIME)):
        reference = list(_reference_scenarios(paf))
        # for each choice of u1: 2**13 attack choices without u0, 2**14 with it
        assert len(reference) == 2 * (2 ** (oracle._BLOCK + 3) + 2 ** (oracle._BLOCK + 4))
        assert list(enumerate_subframeworks(paf)) == [
            (Subframework(present, atts), p) for present, atts, p in reference
        ]
        _assert_read_in_stream(paf, 0, reference)


def _assert_read_in_stream(paf, required, reference):
    """Walk ``_iter_scenarios(paf, required=required)`` in step with the
    scenarios of ``reference`` that hold the required arguments, reading
    each view, bit for bit, and its weight before drawing the next."""
    index = {a: i for i, a in enumerate(paf.af.arguments)}
    den = oracle._denominator(paf)
    wanted = [(present, atts, p) for present, atts, p in reference
              if _mask(index, present) & required == required]
    stream = oracle._iter_scenarios(paf, required=required)
    for k, ((view, w), (present, atts, p)) in enumerate(zip(stream, wanted, strict=True)):
        ref = _bitmask_view(index, present, atts)
        assert (view.present, view.att_of, view.tgt_of, Fraction(w, den)) == (
            ref.present, ref.att_of, ref.tgt_of, p), (k, sorted(atts))


def test_the_in_place_view_carries_no_stale_bits():
    # one view walks each block, toggled in place: a bit left over from a
    # Gray step, a high pattern or an argument choice shows in the next view
    paf = _block_split_paf()
    index = {a: i for i, a in enumerate(paf.af.arguments)}
    reference = list(_reference_scenarios(paf))
    # with neither required, test_scenarios_across_the_block_split walks it
    for names in (["u0"], ["u1"], ["u0", "u1"]):
        _assert_read_in_stream(paf, _mask(index, names), reference)
    rnd = random.Random(34)
    checked = 0
    while checked < 50:
        paf = random_paf(rnd, max_args=7, max_uncertain=12)
        if sum(1 for r in paf.af.attacks if not paf.att_certain(r)) <= oracle._BLOCK:
            continue
        required = rnd.getrandbits(len(paf.af.arguments))
        _assert_read_in_stream(paf, required, list(_reference_scenarios(paf)))
        checked += 1


def _stream(paf, required=0):
    # a view is valid until the next is drawn, so its lists are copied
    return [(view.present, view.att_of[:], view.tgt_of[:], w)
            for view, w in oracle._iter_scenarios(paf, required=required)]


def test_required_arguments_leave_out_only_the_scenarios_that_lack_them():
    def check(paf, required):
        full = _stream(paf)
        assert _stream(paf, required) == [s for s in full if s[0] & required == required]

    paf = _block_split_paf()
    index = {a: i for i, a in enumerate(paf.af.arguments)}
    for names in (["u0"], ["u1"], ["u0", "u1"]):
        check(paf, sum(1 << index[a] for a in names))
    rnd = random.Random(16)
    for _ in range(100):
        paf = random_paf(rnd, max_args=6, max_uncertain=10)
        check(paf, rnd.getrandbits(len(paf.af.arguments)))


def test_a_query_enumerates_only_the_scenarios_that_hold_its_arguments():
    names = [f"x{i}" for i in range(10)]
    paf = PAF(AF(names), {a: Fraction(1, 2) for a in names}, {})
    seen = oracle._fold(paf, "adm", {"x0"}, oracle.DEFAULT_UNCERTAINTY_CAP, None,
                        lambda *_: True, weighted=False)
    assert seen == 512


def test_a_near_cap_chain_runs_out_of_time_in_bounded_memory(tmp_path):
    # 26 uncertain attacks on a certain 27-chain: 2**26 scenarios, which the
    # 0.5 s deadline stops; building them all at once would exhaust 1 GiB
    resource = pytest.importorskip("resource")
    names = [f"c{i:02d}" for i in range(27)]
    chain = list(zip(names, names[1:]))
    path = tmp_path / "chain27.paf"
    path.write_text(serialize_paf(PAF(AF(names, chain), {a: 1 for a in names}, {r: Fraction(1, 2) for r in chain})))
    src = str(Path(paftd.__file__).resolve().parents[1])

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "paftd", "oracle", str(path), "--ext", "c00", "--timeout", "0.5"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=limit_memory,
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == "error: oracle enumeration ran out of time\n"


def _subset_accepts(view, abit, sigma):
    """Credulous acceptance by trying every subset of the present arguments
    that holds the argument: the reference for the oracle's defence search."""
    if not view.present & abit:
        return False
    rest = view.present & ~abit
    sub = rest
    while True:
        if view.is_extension(sub | abit, sigma):
            return True
        if sub == 0:
            return False
        sub = (sub - 1) & rest


def test_acceptance_matches_the_subset_search():
    rnd = random.Random(16)
    pairs = cut = 0
    for _ in range(300):
        paf = random_paf(rnd, max_args=6, max_uncertain=8)
        index = {a: i for i, a in enumerate(paf.af.arguments)}
        views = [(_bitmask_view(index, present, atts), p)
                 for present, atts, p in _reference_scenarios(paf)]
        for a in paf.af.arguments:
            pairs += 1
            cut += len(oracle._ancestors(paf.af, a)) < len(paf.af.arguments)
            for sigma in ORACLE_SEMANTICS:
                acc = [p for view, p in views if _subset_accepts(view, 1 << index[a], sigma)]
                assert p_acc_oracle(paf, sigma, a) == sum(acc, Fraction(0)), (paf, a, sigma)
                assert count_acc(paf, sigma, a) == len(acc), (paf, a, sigma)
    # most pairs are answered on a sub-PAF of the argument's ancestors
    assert cut >= 500, (cut, pairs)


def _with_certain_3_cycle(paf):
    """``paf`` with the certain cycle z1 -> z2 -> z3 -> z1 beside it."""
    zs = ["z1", "z2", "z3"]
    cycle = list(zip(zs, zs[1:] + zs[:1]))
    af = AF([*paf.af.arguments, *zs], [*paf.af.attacks, *cycle])
    return PAF(af, {**paf.arg_prob, **dict.fromkeys(zs, 1)}, {**paf.att_prob, **dict.fromkeys(cycle, 1)})


def _assert_acceptance_reads_only_ancestors(paf):
    cycled = _with_certain_3_cycle(paf)
    for a in paf.af.arguments:
        for sigma in ("adm", "com", "grd"):
            assert p_acc_oracle(cycled, sigma, a) == p_acc_oracle(paf, sigma, a), (paf, a, sigma)
        # stable semantics is not directional: the odd cycle leaves no stable extension
        assert p_acc_oracle(cycled, "stb", a) == 0, (paf, a)


def test_acceptance_reads_only_the_arguments_ancestors():
    grid = parse_paf(generate_grid_document(GridSpec(3, 3, 2))).paf
    # nothing attacks a1_2, so each semantics but stb accepts it exactly when it is present
    assert grid.af.attackers("a1_2") == frozenset()
    for sigma in ("grd", "com"):
        assert p_acc_oracle(grid, sigma, "a1_2") == Fraction(9, 10)
    assert p_acc_oracle(grid, "stb", "a1_2") == Fraction(9, 10)
    assert p_acc_oracle(_with_certain_3_cycle(grid), "stb", "a1_2") == 0
    _assert_acceptance_reads_only_ancestors(grid)
    rnd = random.Random(38)
    for _ in range(50):
        _assert_acceptance_reads_only_ancestors(random_paf(rnd, max_args=6, max_uncertain=8))


def test_acceptance_on_a_deep_chain():
    # a0 -> a1 -> ... -> a2500: a2500 is defended by a2498, a2496, ..., a0,
    # so the defence search goes 1250 sets deep; the subset search would
    # try up to 2**2500 sets
    names = [f"a{i}" for i in range(2501)]
    paf = PAF.certain(AF(names, list(zip(names, names[1:]))))
    start = time.perf_counter()
    for sigma in ("adm", "com"):
        assert p_acc_oracle(paf, sigma, "a2500") == 1
        assert p_acc_oracle(paf, sigma, "a2499") == 0
    # under stb the search also branches on each open argument itself: for
    # a2500 it adds a0, a2, ..., a2498, the one stable extension; for a2499
    # it meets a2498, which attacks S and whose attacker a2497 S attacks
    assert p_acc_oracle(paf, "stb", "a2500") == 1
    assert p_acc_oracle(paf, "stb", "a2499") == 0
    assert time.perf_counter() - start < 1


def _mask(index, names):
    return sum(1 << index[a] for a in names)


def test_each_scenario_agrees_with_the_core_semantics():
    # per scenario, not per sum: a wrong yes in one scenario cannot hide
    # behind a wrong no of the same weight in another
    rnd = random.Random(32)
    for _ in range(200):
        paf = random_paf(rnd, max_args=7, max_uncertain=5)
        args = paf.af.arguments
        index = {a: i for i, a in enumerate(args)}
        for (view, _), (sub, _) in zip(oracle._iter_scenarios(paf), enumerate_subframeworks(paf)):
            af = sub.to_af()
            assert view.grounded() == _mask(index, grounded_extension(af)), sub
            present = view.present
            absent = ~present & ((1 << len(args)) - 1)
            for sigma in ORACLE_SEMANTICS:
                exts = {_mask(index, E) for E in extensions(af, sigma)}
                # every subset of the present arguments, and one absent argument
                if absent:
                    assert not view.is_extension(absent & -absent, sigma)
                S = present
                while True:
                    assert view.is_extension(S, sigma) == (S in exts), (sub, sigma, S)
                    if S == 0:
                        break
                    S = (S - 1) & present
                for i in range(len(args)):
                    held = any(E >> i & 1 for E in exts)
                    assert view.accepts(1 << i, sigma) == held, (sub, sigma, args[i])


def test_grounded_on_hand_built_scenarios():
    # a0 -> a1 -> ... -> a8: a round adds one argument, a_2k joins in round
    # k + 1, and a_2k+1 is attacked in round k + 1
    names = [f"a{i}" for i in range(9)]
    index = {a: i for i, a in enumerate(names)}
    chain = _bitmask_view(index, names, list(zip(names, names[1:])))
    even = _mask(index, names[::2])
    assert chain.grounded() == even
    for i, a in enumerate(names):
        assert chain.accepts(1 << i, "grd") == (i % 2 == 0), a
    assert chain.is_extension(even, "grd")
    assert not chain.is_extension(even & ~1, "grd")  # lacks the round-1 argument
    assert not chain.is_extension(even ^ 1 << 8, "grd")  # lacks the last one
    assert not chain.is_extension(even | 1 << 7, "grd")  # holds an attacked one

    # an odd cycle: every argument stays undecided, neither in nor attacked
    names = ["a", "b", "c"]
    index = {a: i for i, a in enumerate(names)}
    cycle = _bitmask_view(index, names, [("a", "b"), ("b", "c"), ("c", "a")])
    assert cycle.grounded() == 0
    assert not any(cycle.accepts(1 << i, "grd") for i in range(3))
    assert cycle.is_extension(0, "grd")
    assert not cycle.is_extension(1, "grd")

    # u is unattacked, so round 1 adds u and attacks x, and round 2 adds y
    names = ["u", "x", "y"]
    index = {a: i for i, a in enumerate(names)}
    view = _bitmask_view(index, names, [("u", "x"), ("x", "y")])
    assert view.grounded() == 0b101
    assert [view.accepts(1 << i, "grd") for i in range(3)] == [True, False, True]
    assert view.is_extension(0b101, "grd")
    assert not view.is_extension(0b001, "grd")
    assert not view.is_extension(0b111, "grd")


def test_oracle_imports_only_core_errors_and_the_standard_library():
    # the oracle is the DP's independent reference, so it must not share
    # code with the solver, preprocessing or tree decompositions
    tree = ast.parse(Path(oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.module in ("core", "errors"), ast.unparse(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [n.name for n in node.names]
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, ast.unparse(node)
