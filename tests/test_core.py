import random
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paftd import (
    AF,
    PAF,
    CapacityError,
    ForcedLabeling,
    InputError,
    Subframework,
    defends,
    extensions,
    grounded_extension,
    is_certain_respecting,
    is_conflict_free,
    subframework_probability,
)
from paftd.core import as_probability

from conftest import random_paf


def simple_af():
    return AF(["a", "b", "c"], [("a", "b"), ("b", "c")])


def test_af_is_canonical_and_immutable_by_value():
    af1 = AF(["b", "a"], [("a", "b")])
    af2 = AF(["a", "b", "a"], [("a", "b")])
    assert af1 == af2
    assert af1.arguments == ("a", "b")
    assert hash(af1) == hash(af2)


def test_af_rejects_undeclared_endpoint_and_bad_names():
    with pytest.raises(InputError):
        AF(["a"], [("a", "b")])
    with pytest.raises(InputError):
        AF(["a b"])
    with pytest.raises(InputError):
        AF(["#x"])
    # malformed library input is an InputError too, not a TypeError or ValueError
    with pytest.raises(InputError, match="^invalid argument name 1$"):
        AF(["a", 1])
    with pytest.raises(InputError, match=r"^attack \('a',\) is not a pair of arguments$"):
        AF(["a"], [("a",)])
    with pytest.raises(InputError, match="^an argument cannot be forced both in and out$"):
        ForcedLabeling(frozenset("ab"), frozenset("b"))
    # a string is not a collection of names, nor of attacks
    for build in (lambda: AF(5), lambda: AF(["a"], 5), lambda: AF("ab"), lambda: AF(["a", "b"], "ab")):
        with pytest.raises(InputError, match="^an AF takes an iterable of arguments and one of attacks$"):
            build()
    with pytest.raises(InputError, match="^attack 'ab' is not a pair of arguments$"):
        AF(["a", "b"], ["ab"])
    for S in (5, None):
        with pytest.raises(InputError, match=rf"^query set {S} is not a set of argument names$"):
            AF(["a"]).check_subset(S)


def test_attackers_and_targets():
    af = simple_af()
    assert af.attackers("b") == {"a"}
    assert af.targets("b") == {"c"}
    assert af.attackers("a") == frozenset()


def test_conflict_freeness_counts_self_attacks():
    af = AF(["a", "b"], [("a", "a")])
    assert not is_conflict_free(af, {"a"})
    assert is_conflict_free(af, {"b"})


def test_defends():
    af = simple_af()
    assert defends(af, {"a"}, "c")
    assert not defends(af, set(), "b")


def test_extensions_on_chain():
    af = simple_af()
    assert extensions(af, "grd") == {frozenset({"a", "c"})}
    assert frozenset({"a", "c"}) in extensions(af, "stb")
    assert frozenset() in extensions(af, "adm")
    assert extensions(af, "com") == {frozenset({"a", "c"})}
    assert extensions(af, "cf") == {frozenset(s) for s in ("", "a", "b", "c", "ac")}


def test_grounded_matches_minimal_complete():
    rnd = random.Random(11)
    for _ in range(30):
        paf = random_paf(rnd, max_args=6)
        af = paf.af
        assert frozenset(grounded_extension(af)) in extensions(af, "grd")
        assert extensions(af, "grd") <= extensions(af, "com")


def test_as_probability_rejects_floats_and_out_of_range():
    with pytest.raises(InputError):
        as_probability(0.5)
    with pytest.raises(InputError):
        as_probability("3/2")
    assert as_probability("0.3") == Fraction(3, 10)
    assert as_probability(Fraction(1, 3)) == Fraction(1, 3)


def test_an_in_range_fraction_is_returned_as_it_is():
    p = Fraction(1, 3)
    assert as_probability(p) is p
    with pytest.raises(InputError, match=r"^probability Fraction\(3, 2\) outside \(0, 1\]$"):
        as_probability(Fraction(3, 2))

    class Tenth(Fraction):
        pass

    # a subclass takes the full path and comes back as a plain Fraction
    q = as_probability(Tenth(1, 10))
    assert type(q) is Fraction and q == Fraction(1, 10)


@pytest.mark.parametrize("value", [0, "0", "0.0", Fraction(0), Decimal("0")], ids=repr)
def test_as_probability_rejects_zero(value):
    with pytest.raises(InputError, match=r"^zero-probability element; remove it from the instance$"):
        as_probability(value)


@pytest.mark.parametrize(
    "value, message",
    [
        (2, "probability 2 outside (0, 1]"),
        (Fraction(-1, 2), "probability Fraction(-1, 2) outside (0, 1]"),
        ("abc", "invalid probability 'abc'"),
        ("1/0", "invalid probability '1/0'"),
        # Fraction itself would strip the no-break space
        ("\u00a00.5", "invalid probability '\\xa00.5'"),
        (None, "invalid probability None"),
        (0.5, "refusing float probability 0.5; pass a string or Fraction"),
    ],
    ids=["above-one", "negative", "unparsable", "zero-denominator", "no-break-space", "none", "float"],
)
def test_as_probability_messages(value, message):
    with pytest.raises(InputError) as info:
        as_probability(value)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "value",
    [Decimal("Infinity"), Decimal("-Infinity"), "1 / 3", "1e-10000000", Decimal("1e-10000000"), "1e+4301"],
    ids=repr,
)
def test_as_probability_rejects_what_it_cannot_bound(value):
    with pytest.raises(InputError) as info:
        as_probability(value)
    assert str(info.value) == f"invalid probability {value!r}"


def test_surrounding_whitespace_is_accepted():
    assert as_probability(" 0.5\t") == Fraction(1, 2)


def test_both_spellings_of_a_small_probability_meet_one_bound():
    # an exponent is bounded by Python's digit limit on an int literal, so
    # 1e-k and 0.00...1 (k decimals) are accepted or rejected together
    for k, accepted in ((4300, True), (4301, False)):
        for text in (f"1e-{k}", "0." + "0" * (k - 1) + "1"):
            if accepted:
                assert as_probability(text) == Fraction(1, 10**k)
            else:
                with pytest.raises(InputError, match="^invalid probability"):
                    as_probability(text)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit to lift")
def test_the_digit_bound_holds_without_the_interpreter_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        run = "1" * 4300
        assert as_probability("0." + run) == Fraction(int(run), 10**4300)
        assert as_probability(f"{run}/{run}") == 1
        for text in ("0." + run + "1", "0" + run + "/" + run, "1/" + run + "1", "1e-" + "0" * 4301, "0." + run + "1e0"):
            with pytest.raises(InputError) as info:
                as_probability(text)
            assert str(info.value) == f"invalid probability {text!r}"
    finally:
        sys.set_int_max_str_digits(limit)


@settings(derandomize=True, deadline=None, database=None)
@given(st.text(alphabet="0123456789", max_size=30))
def test_a_decimal_token_reads_as_fraction_reads_it(ds):
    want = Fraction("0." + ds)
    if want == 0:
        with pytest.raises(InputError, match=r"^zero-probability element; remove it from the instance$"):
            as_probability("0." + ds)
    else:
        assert as_probability("0." + ds) == want


def test_a_long_decimal_exponent_is_rejected_quickly():
    started = time.monotonic()
    with pytest.raises(InputError, match="^invalid probability"):
        PAF(AF(["a"]), {"a": Decimal("1e-10000000")}, {})
    assert time.monotonic() - started < 1


def test_extensions_rejects_unknown_semantics_and_large_frameworks():
    with pytest.raises(InputError) as info:
        extensions(simple_af(), "prf")
    assert str(info.value) == "unknown semantics 'prf'"
    with pytest.raises(CapacityError) as info:
        extensions(AF([f"x{i:02d}" for i in range(21)]), "com")
    assert str(info.value) == "extension enumeration capped at 20 arguments"


def test_paf_rejects_zero_probability_and_bad_coverage():
    af = AF(["a"])
    with pytest.raises(InputError, match="zero-probability element"):
        PAF(af, {"a": 0}, {})
    with pytest.raises(InputError, match="zero-probability element"):
        PAF(AF(["a", "b"], [("a", "b")]), {"a": 1, "b": 1}, {("a", "b"): Fraction(0)})
    with pytest.raises(InputError):
        PAF(af, {}, {})
    with pytest.raises(InputError, match="attack probabilities do not cover the attacks"):
        PAF(AF(["a", "b"], [("a", "b")]), {"a": 1, "b": 1}, {})
    # wrongly shaped library input is an InputError too
    with pytest.raises(InputError, match="^5 is not an AF$"):
        PAF(5, {}, {})
    for arg_prob, att_prob in ((5, {}), ({"a": 1}, 5)):
        with pytest.raises(InputError, match="^a PAF takes its probabilities as mappings$"):
            PAF(af, arg_prob, att_prob)
    with pytest.raises(InputError, match="^attack 1 is not a pair of arguments$"):
        PAF(af, {"a": 1}, {1: 1})
    with pytest.raises(InputError, match="^attack 'ab' is not a pair of arguments$"):
        PAF(AF(["a", "b"], [("a", "b")]), {"a": 1, "b": 1}, {"ab": "1/2"})


def test_certain_respecting_subframeworks():
    af = AF(["a", "b"], [("a", "b")])
    paf = PAF(af, {"a": 1, "b": Fraction(1, 2)}, {("a", "b"): 1})
    assert is_certain_respecting(paf, Subframework(frozenset("a"), frozenset()))
    assert not is_certain_respecting(paf, Subframework(frozenset("b"), frozenset()))
    full = Subframework(frozenset(["a", "b"]), frozenset([("a", "b")]))
    assert is_certain_respecting(paf, full)
    # a certain attack cannot be dropped while both endpoints are present
    assert not is_certain_respecting(
        paf, Subframework(frozenset(["a", "b"]), frozenset())
    )
    # an argument or an attack outside the PAF, and an attack with an absent endpoint
    for args, atts in (("az", []), ("ab", [("a", "b"), ("b", "a")]), ("a", [("a", "b")])):
        assert not is_certain_respecting(paf, Subframework(frozenset(args), frozenset(atts)))


def test_subframework_probability_product():
    af = AF(["a", "b"], [("a", "b")])
    paf = PAF(
        af, {"a": Fraction(4, 5), "b": Fraction(1, 2)}, {("a", "b"): Fraction(7, 10)}
    )
    both = Subframework(frozenset(["a", "b"]), frozenset([("a", "b")]))
    assert subframework_probability(paf, both) == Fraction(4, 5) * Fraction(1, 2) * Fraction(7, 10)
    only_a = Subframework(frozenset(["a"]), frozenset())
    assert subframework_probability(paf, only_a) == Fraction(4, 5) * Fraction(1, 2)
    with pytest.raises(InputError, match="violates the certain part of the PAF"):
        subframework_probability(PAF(af, {"a": 1, "b": 1}, {("a", "b"): 1}), only_a)
