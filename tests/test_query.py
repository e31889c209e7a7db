"""The P-Ext query path: forced-label preprocessing in front of the engine,
as ``paftd solve``, ``paftd oracle --ext`` and the library ``p_ext`` run it."""

import json
import random
from fractions import Fraction

import pytest

from paftd import InputError, decompose, make_nice, p_ext, p_ext_oracle, parse_paf, solver
from paftd.cli import run
from paftd.preprocess import simplify_for_ext

from conftest import FIXTURES, random_paf, random_subset

CHAIN5 = str(FIXTURES / "chain5.paf")


def run_json(capsys, argv):
    assert run(argv) == 0
    return json.loads(capsys.readouterr().out)


@pytest.fixture(scope="module")
def chain5():
    return parse_paf((FIXTURES / "chain5.paf").read_text()).paf


@pytest.mark.parametrize("mode, answer", [("rational", "0"), ("float", "0.0")])
def test_solve_zero_short_circuit(capsys, mode, answer):
    rec = run_json(capsys, ["solve", CHAIN5, "--set", "b", "--mode", mode, "--trace"])
    assert rec["answer"] == answer
    assert rec["preprocess"] == "zero"
    assert rec["width"] is None and rec["nodes"] is None
    assert "trace" not in rec


@pytest.mark.parametrize(
    "extra, answer, nodes, status",
    [
        ((), "3/8", 9, "on"),
        (("--mode", "float"), "0.375", 9, "on"),
        (("--preprocess", "off"), "3/8", 11, "off"),
    ],
)
def test_solve_reduces_before_the_dp(capsys, extra, answer, nodes, status):
    rec = run_json(capsys, ["solve", CHAIN5, "--set", "a,e", *extra])
    assert rec["answer"] == answer
    assert rec["nodes"] == nodes
    assert rec["preprocess"] == status


def test_solve_with_td_file_skips_preprocessing(tmp_path, capsys):
    assert run(["decompose", CHAIN5, "--nice"]) == 0
    td_file = tmp_path / "chain5.td"
    td_file.write_text(capsys.readouterr().out)
    rec = run_json(capsys, ["solve", CHAIN5, "--set", "a,e", "--td-file", str(td_file)])
    assert rec["answer"] == "3/8"
    assert rec["preprocess"] == "off"


def test_oracle_ext_with_preprocessing(capsys):
    rec = run_json(capsys, ["oracle", CHAIN5, "--ext", "a,e", "--preprocess", "on"])
    assert rec["answer"] == "3/8"


def test_library_p_ext_preprocesses_unless_given_a_td(chain5):
    S = {"a", "e"}
    td = make_nice(decompose(chain5.af))
    expected = p_ext_oracle(chain5, "com", S)
    assert expected == Fraction(3, 8)
    assert p_ext(chain5, "com", S) == expected
    # the TD covers the unreduced graph, so a reduced instance would not match it
    assert solver.solve(chain5, "com", S, td=td).value == expected
    assert p_ext(chain5, "com", {"b"}) == 0
    with pytest.raises(InputError):
        p_ext(chain5, "com", {"b"}, mode="decimal")  # rejected though preprocessing alone answers


def test_library_p_ext_hands_the_reduced_instance_to_the_dp(chain5, monkeypatch):
    seen = []
    raw = solver.three_state

    def spy(paf, *args, **kwargs):
        seen.append(paf.af.arguments)
        return raw(paf, *args, **kwargs)

    def no_dp(*args, **kwargs):
        raise AssertionError("the paper's DP ran")

    # the three-state DP answers com; the paper's DP answers only --trace
    monkeypatch.setattr(solver, "three_state", spy)
    monkeypatch.setattr(solver, "solve", no_dp)
    assert p_ext(chain5, "com", {"b"}) == 0
    assert seen == []
    assert p_ext(chain5, "com", {"a", "e"}, mode="float") == 0.375
    assert seen == [("a", "b", "c", "e")]


def test_library_p_ext_answers_adm_and_stb_without_the_dp(chain5, monkeypatch):
    def no_dp(*args, **kwargs):
        raise AssertionError("the DP ran")

    S = {"a", "c", "e"}
    expected = {sigma: p_ext_oracle(chain5, sigma, S) for sigma in ("adm", "stb")}
    monkeypatch.setattr(solver, "solve", no_dp)
    for sigma, value in expected.items():
        assert p_ext(chain5, sigma, S) == value
        assert p_ext(chain5, sigma, S, mode="float") == float(value)
    with pytest.raises(InputError, match="unknown argument 'zz'"):
        p_ext(chain5, "stb", {"zz"})
    with pytest.raises(InputError):
        p_ext(chain5, "adm", S, mode="decimal")
    with pytest.raises(InputError, match="semantics 'com' has no closed form"):
        solver.closed_form(chain5, "com", S)


def test_float_answer_after_preprocessing_is_rounded_once():
    rnd = random.Random(44)
    reduced = 0
    for _ in range(300):
        paf = random_paf(rnd)
        S = random_subset(rnd, paf)
        assert p_ext(paf, "com", S, mode="float") == float(p_ext(paf, "com", S))
        reduction = simplify_for_ext(paf, S)
        reduced += not reduction.zero and reduction.paf.af.arguments != paf.af.arguments
    assert reduced >= 50  # preprocessing removed an argument, so the answer was scaled


def test_solve_float_rounds_the_scaled_answer_once(tmp_path, capsys):
    # x0 is forced in, uncertain and outside S: preprocessing removes it and
    # scales the answer on x1 alone (1/5) by 1 - 4/5
    path = tmp_path / "pair.paf"
    path.write_text("arg x0 0.8\narg x1 0.2\nset x1\n")
    rec = run_json(capsys, ["solve", str(path), "--mode", "float"])
    assert rec["preprocess"] == "on"
    assert rec["answer"] == repr(float(Fraction(1, 25))) == "0.04"
