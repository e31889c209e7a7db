import random
from fractions import Fraction

from paftd import (
    AF,
    PAF,
    forced_labeling,
    p_acc_oracle,
    p_ext_oracle,
    parse_paf,
    simplify_for_acc,
    simplify_for_ext,
)

from conftest import FIXTURES, random_paf, random_subset


def test_chain5_forced_labels():
    paf = parse_paf((FIXTURES / "chain5.paf").read_text()).paf
    forced = forced_labeling(paf)
    assert forced.forced_in == {"a", "d"}
    assert forced.forced_out == {"c"}


def test_unattacked_certain_argument_is_forced_in():
    paf = PAF.certain(AF(["a", "b"], [("a", "b")]))
    forced = forced_labeling(paf)
    assert forced.forced_in == {"a"}
    assert forced.forced_out == {"b"}


def test_uncertain_attack_blocks_forced_out():
    af = AF(["a", "b"], [("a", "b")])
    paf = PAF(af, {"a": 1, "b": 1}, {("a", "b"): Fraction(1, 2)})
    forced = forced_labeling(paf)
    assert forced.forced_in == {"a"}
    assert forced.forced_out == frozenset()


def test_uncertain_attacker_still_blocks_forced_in():
    # b's only attacker is merely possible, yet b cannot be forced in
    af = AF(["a", "b"], [("a", "b")])
    paf = PAF(af, {"a": Fraction(1, 2), "b": 1}, {("a", "b"): 1})
    forced = forced_labeling(paf)
    assert "b" not in forced.forced_in


def reference_forced_labeling(paf):
    """The forced labels by sweeping every argument until a sweep changes nothing."""
    af = paf.af
    fin, fout = set(), set()
    changed = True
    while changed:
        changed = False
        for a in af.arguments:
            if a in fin or a in fout:
                continue
            if all(b in fout for b in af.attackers(a)):
                fin.add(a)
                changed = True
            elif any(
                b in fin and paf.arg_certain(b) and paf.att_certain((b, a))
                for b in af.attackers(a)
            ):
                fout.add(a)
                changed = True
    return fin, fout


def test_forced_labeling_equals_the_sweep_reference():
    rnd = random.Random(23)
    labeled = 0
    for _ in range(400):
        # up to 12 uncertain elements, so the larger instances hold certain ones
        paf = random_paf(rnd, max_args=rnd.choice([4, 8, 14]))
        forced = forced_labeling(paf)
        assert (forced.forced_in, forced.forced_out) == reference_forced_labeling(paf)
        labeled += bool(forced.forced_in or forced.forced_out)
    assert labeled >= 100  # the comparison is not between empty labelings


def test_forced_labels_propagate_along_certain_chains():
    # c1999 -> c1998 -> ... -> c0000 runs against name order: each label
    # follows a later name's label; the chain is also run the other way
    names = [f"c{i:04d}" for i in range(2000)]
    for chain in (names[::-1], names):
        forced = forced_labeling(PAF.certain(AF(names, zip(chain, chain[1:]))))
        assert forced.forced_in == frozenset(chain[::2])
        assert forced.forced_out == frozenset(chain[1::2])


def test_simplify_zero_cases():
    paf = PAF.certain(AF(["a", "b"], [("a", "b")]))
    assert simplify_for_ext(paf, {"b"}).zero  # b is forced out
    assert simplify_for_ext(paf, set()).zero  # omits the certain forced-in a
    assert not simplify_for_ext(paf, {"a"}).zero


def test_simplify_removes_uncertain_forced_in_with_multiplier():
    af = AF(["a", "b"], [])
    paf = PAF(af, {"a": Fraction(3, 10), "b": 1}, {})
    red = simplify_for_ext(paf, {"b"})
    assert not red.zero
    assert red.multiplier == Fraction(7, 10)
    assert red.paf.af.arguments == ("b",)


def test_simplified_query_is_sound_on_random_instances():
    rnd = random.Random(21)
    for _ in range(50):
        paf = random_paf(rnd, max_args=6)
        S = random_subset(rnd, paf)
        want = p_ext_oracle(paf, "com", S)
        red = simplify_for_ext(paf, S)
        if red.zero:
            assert want == 0
        else:
            got = red.multiplier * p_ext_oracle(red.paf, "com", S)
            assert got == want


def test_simplify_for_acc_is_sound():
    rnd = random.Random(22)
    for _ in range(25):
        paf = random_paf(rnd, max_args=5)
        for a in paf.af.arguments:
            if simplify_for_acc(paf, a):
                assert p_acc_oracle(paf, "com", a) == 0
