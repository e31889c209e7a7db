import random
import time
from fractions import Fraction

import pytest

from paftd import AF, PAF, GridSpec, PafFormatError, generate_grid, parse_paf, serialize_paf
from paftd.paffile import format_probability

from conftest import FIXTURES, random_paf


def test_cycle5_parses_and_round_trips():
    text = (FIXTURES / "cycle5.paf").read_text()
    doc = parse_paf(text)
    assert len(doc.paf.af.arguments) == 5
    assert len(doc.paf.af.attacks) == 10
    assert doc.paf.arg_prob["a"] == Fraction(4, 5)
    assert doc.query_set == {"a", "c", "e"}
    assert doc.query_arg == "e"
    again = serialize_paf(doc.paf, query_set=doc.query_set, query_arg=doc.query_arg)
    assert parse_paf(again).paf == doc.paf


def test_readme_instance_format_example_parses():
    readme = (FIXTURES.parent.parent / "README.md").read_text()
    section = readme.split("## Instance format", 1)[1]
    block = section.split("```\n", 2)[1]
    doc = parse_paf(block)
    assert doc.paf.af.arguments == ("a", "b")
    assert doc.paf.att_prob == {("a", "b"): Fraction(7, 10)}
    assert doc.query_set == {"a", "b"}
    assert doc.query_arg == "b"


def test_empty_file():
    doc = parse_paf("")
    assert doc.paf.af.arguments == ()
    assert doc.query_set is None
    assert serialize_paf(doc.paf) == ""


def test_comments_and_blank_lines_ignored():
    doc = parse_paf("# hello\n\narg a 1\n")
    assert doc.paf.af.arguments == ("a",)


def test_zero_probability_rejected_with_line_number():
    with pytest.raises(PafFormatError, match="line 2.*zero-probability"):
        parse_paf("arg a 1\narg b 0\n")
    with pytest.raises(PafFormatError, match="zero-probability"):
        parse_paf("arg a 1\narg b 1\natt a b 0\n")


def test_undeclared_endpoint_rejected():
    with pytest.raises(PafFormatError, match="undeclared"):
        parse_paf("arg a 1\natt a b 1\n")


def test_duplicates_rejected():
    with pytest.raises(PafFormatError, match="duplicate"):
        parse_paf("arg a 1\narg a 0.5\n")
    with pytest.raises(PafFormatError, match="duplicate"):
        parse_paf("arg a 1\natt a a 1\natt a a 0.5\n")


def test_out_of_range_probability_rejected():
    with pytest.raises(PafFormatError, match="outside"):
        parse_paf("arg a 1.5\n")


ZERO = "zero-probability element; remove it from the instance"

# each token, and the value it parses to or the exact error text after "line N: "
PROBABILITY_TOKENS = [
    ("1e-1", Fraction(1, 10)),
    ("+0.5", Fraction(1, 2)),
    (".5", Fraction(1, 2)),
    ("0.", ZERO),
    ("1/3", Fraction(1, 3)),
    ("0.0", ZERO),
    ("1.5", "probability '1.5' outside (0, 1]"),
    ("abc", "invalid probability 'abc'"),
    ("-0.5", "probability '-0.5' outside (0, 1]"),
    ("1/0", "invalid probability '1/0'"),
    ("nan", "invalid probability 'nan'"),
    ("inf", "invalid probability 'inf'"),
    ("0/1", ZERO),
    ("3/2", "probability '3/2' outside (0, 1]"),
    ("1", Fraction(1)),
    ("0", ZERO),
    ("0.1_0", "invalid probability '0.1_0'"),
    ("0.0_5", "invalid probability '0.0_5'"),
    ("1/1_0", "invalid probability '1/1_0'"),
    ("1_0", "invalid probability '1_0'"),
    ("1e-300", Fraction(1, 10**300)),
    ("٠.٥", "invalid probability '٠.٥'"),
    ("0.50", Fraction(1, 2)),
    ("0.05", Fraction(1, 20)),
    ("00.5", Fraction(1, 2)),
    ("1.0", Fraction(1)),
    ("0.000", ZERO),
    ("0.5e0", Fraction(1, 2)),
    ("0.²", "invalid probability '0.²'"),
    ("0.٥", "invalid probability '0.٥'"),
]


@pytest.mark.parametrize("token, want", PROBABILITY_TOKENS, ids=[t for t, _ in PROBABILITY_TOKENS])
@pytest.mark.parametrize(
    "lineno, template",
    [(1, "arg a {}\n"), (3, "arg a 1\narg b 1\natt a b {}\n")],
    ids=["arg", "att"],
)
def test_probability_token(token, want, lineno, template):
    text = template.format(token)
    if isinstance(want, Fraction):
        paf = parse_paf(text).paf
        assert (paf.att_prob[("a", "b")] if lineno == 3 else paf.arg_prob["a"]) == want
        return
    with pytest.raises(PafFormatError) as info:
        parse_paf(text)
    assert str(info.value) == f"line {lineno}: {want}"
    assert info.value.lineno == lineno


@pytest.mark.parametrize("token, message", [("0.5.", "invalid probability '0.5.'"), ("0", ZERO)])
def test_a_repeated_bad_token_fails_at_its_first_line(token, message):
    text = f"arg a 0.5\narg b 1\natt a b {token}\natt b a {token}\narg c {token}\n"
    with pytest.raises(PafFormatError) as info:
        parse_paf(text)
    assert str(info.value) == f"line 3: {message}"
    assert info.value.lineno == 3


def test_each_token_is_read_once_per_file():
    paf = parse_paf("arg a 0.5\narg b 0.5\natt a b 0.5\n").paf
    assert paf.arg_prob["a"] is paf.arg_prob["b"] is paf.att_prob[("a", "b")]


def test_a_long_exponent_is_rejected_quickly():
    started = time.monotonic()
    with pytest.raises(PafFormatError) as info:
        parse_paf("arg a 1e-10000000\n")
    assert str(info.value) == "line 1: invalid probability '1e-10000000'"
    assert time.monotonic() - started < 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("arg a\n", "line 1: expected: arg <name> <prob>"),
        ("arg a 1\natt a a\n", "line 2: expected: att <src> <dst> <prob>"),
        ("arg a 1\nquery\n", "line 2: expected: query <name>"),
        ("arg #a 1\n", "line 1: invalid argument name '#a'"),
        ("arg a 1\nset a\nset\n", "line 3: duplicate set line"),
        ("arg a 1\nquery a\nquery a\n", "line 3: duplicate query line"),
        ("arg a 1\nset a b\n", "line 2: undeclared set member 'b'"),
        ("arg a 1\nquery b\n", "line 2: undeclared query argument 'b'"),
        ("arg a 1\narg b 1\narg a 0.5\n", "line 3: duplicate argument 'a'"),
        ("arg a 1\narg b 1\natt c a 1\n", "line 3: undeclared endpoint 'c'"),
        ("arg a 1\narg b 1\natt a d 1\n", "line 3: undeclared endpoint 'd'"),
        ("arg a 1\natt c d 1\n", "line 2: undeclared endpoint 'c'"),
        ("arg a 1\narg b 1\natt a b 1\natt a b 0.5\n", "line 4: duplicate attack (a,b)"),
    ],
    ids=[
        "arg-fields",
        "att-fields",
        "query-fields",
        "argument-name",
        "second-set",
        "second-query",
        "set-member",
        "query-argument",
        "second-argument",
        "undeclared-source",
        "undeclared-target",
        "source-before-target",
        "second-attack",
    ],
)
def test_malformed_line_messages(text, message):
    with pytest.raises(PafFormatError) as info:
        parse_paf(text)
    assert str(info.value) == message


def test_rational_literals_accepted():
    doc = parse_paf("arg a 1/3\n")
    assert doc.paf.arg_prob["a"] == Fraction(1, 3)


def test_unknown_directive_rejected():
    with pytest.raises(PafFormatError, match="unknown directive"):
        parse_paf("argument a 1\n")


def test_format_probability_prefers_decimals():
    assert format_probability(Fraction(7, 10)) == "0.7"
    assert format_probability(Fraction(1)) == "1"
    assert format_probability(Fraction(1, 3)) == "1/3"
    assert format_probability(Fraction(3, 8)) == "0.375"


def test_random_round_trips_are_byte_identical():
    rnd = random.Random(51)
    for _ in range(100):
        paf = random_paf(rnd)
        text = serialize_paf(paf)
        doc = parse_paf(text)
        assert doc.paf == paf
        assert serialize_paf(doc.paf) == text


def _assert_same_instance(got, want):
    """Equal, and equal field by field with the same key order, so nothing
    the public constructors build differs from what the build step alone does."""
    assert got == want
    for name in ("arguments", "attacks"):
        assert getattr(got.af, name) == getattr(want.af, name)
    for name in ("_attackers", "_targets"):
        assert list(getattr(got.af, name).items()) == list(getattr(want.af, name).items())
    for name in ("arg_prob", "att_prob"):
        assert list(getattr(got, name).items()) == list(getattr(want, name).items())
        assert all(type(p) is Fraction for p in getattr(got, name).values())


# the benchmark's grid shapes: dp-replay, long-default and one of oracle-small's
BENCH_SHAPES = [GridSpec(4, 30, 2), GridSpec(2, 300, 1), GridSpec(3, 3, 2)]


def _parity_instances():
    rnd = random.Random(35)
    yield from (random_paf(rnd) for _ in range(150))
    yield from (generate_grid(spec)[0] for spec in BENCH_SHAPES)


def test_the_parser_builds_what_the_public_constructors_build():
    for paf in _parity_instances():
        # the file lists the arguments in canonical order and the attacks sorted
        args = {a: paf.arg_prob[a] for a in paf.af.arguments}
        atts = {r: paf.att_prob[r] for r in sorted(paf.af.attacks)}
        _assert_same_instance(parse_paf(serialize_paf(paf)).paf, PAF(AF(args, atts), args, atts))


def test_without_arguments_builds_what_the_public_constructors_build():
    rnd = random.Random(36)
    for paf in _parity_instances():
        for _ in range(3):
            removed = frozenset(a for a in paf.af.arguments if rnd.random() < 0.3)
            keep = [a for a in paf.af.arguments if a not in removed]
            atts = [r for r in paf.af.attacks if r[0] not in removed and r[1] not in removed]
            want = PAF(AF(keep, atts), {a: paf.arg_prob[a] for a in keep}, {r: paf.att_prob[r] for r in atts})
            _assert_same_instance(paf.without_arguments(removed), want)
