"""The P-Ext query path: forced-label preprocessing in front of the engine,
as ``paftd solve`` and ``paftd oracle --ext`` run it, and the library
``p_ext``, which answers on the instance as given."""

import json
import random
from fractions import Fraction

import pytest

from paftd import InputError, decompose, make_nice, p_ext, p_ext_oracle, parse_paf, preprocess, solver
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


@pytest.mark.parametrize(
    "mode, answer, trace",
    [
        pytest.param("rational", "0", ("--trace",), id="rational-0"),
        pytest.param("float", "0.0", ("--trace",), id="float-0.0"),
        pytest.param("rational", "0", (), id="rational-0-untraced"),
        pytest.param("float", "0.0", (), id="float-0.0-untraced"),
    ],
)
def test_solve_zero_short_circuit(capsys, mode, answer, trace):
    rec = run_json(capsys, ["solve", CHAIN5, "--set", "b", "--mode", mode, *trace])
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
    for S, answer in (("a,e", "3/8"), ("b", "0")):  # a is certain, forced in and outside {b}
        rec = run_json(capsys, ["oracle", CHAIN5, "--ext", S, "--preprocess", "on"])
        assert rec["answer"] == answer


def test_library_p_ext_agrees_with_the_oracle_and_a_fixed_td_dp(chain5):
    S = {"a", "e"}
    td = make_nice(decompose(chain5.af))
    expected = p_ext_oracle(chain5, "com", S)
    assert expected == Fraction(3, 8)
    assert p_ext(chain5, "com", S) == expected
    # a fixed TD goes to the paper's DP, which answers on the instance as given
    assert solver.solve(chain5, "com", S, td=td).value == expected
    assert p_ext(chain5, "com", {"b"}) == 0
    with pytest.raises(InputError):
        p_ext(chain5, "com", {"b"}, mode="decimal")  # an unknown mode is rejected, also for a zero answer


def test_library_p_ext_hands_three_state_the_instance_as_given(chain5, monkeypatch):
    seen = []
    raw = solver.three_state

    def spy(paf, *args, **kwargs):
        seen.append(paf.af.arguments)
        return raw(paf, *args, **kwargs)

    def must_not_run(*args, **kwargs):
        raise AssertionError("p_ext(com) ran the paper's DP or preprocessing")

    # the three-state DP answers com on chain5 itself, even where forced
    # labels alone would answer zero; the paper's DP answers only --trace
    monkeypatch.setattr(solver, "three_state", spy)
    monkeypatch.setattr(solver, "solve", must_not_run)
    monkeypatch.setattr(preprocess, "simplify_for_ext", must_not_run)
    assert p_ext(chain5, "com", {"a", "e"}) == Fraction(3, 8)
    assert p_ext(chain5, "com", {"b"}) == 0
    assert seen == [("a", "b", "c", "d", "e")] * 2


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


def test_scaled_answer_on_the_reduced_instance_is_p_ext_rounded_once():
    # the CLI's route (three_state on the reduced instance, times the
    # multiplier) and the library's (three_state on the instance as given)
    rnd = random.Random(44)
    reduced = 0
    for _ in range(300):
        paf = random_paf(rnd)
        S = random_subset(rnd, paf)
        exact = p_ext(paf, "com", S)
        assert p_ext(paf, "com", S, mode="float") == float(exact)
        reduction = simplify_for_ext(paf, S)
        if reduction.zero:
            assert exact == 0
        elif reduction.paf.af.arguments != paf.af.arguments:
            assert reduction.multiplier * solver.three_state(reduction.paf, S)[0] == exact
            reduced += 1
    assert reduced >= 50


def test_solve_float_rounds_the_scaled_answer_once(tmp_path, capsys):
    # x0 is forced in, uncertain and outside S: preprocessing removes it and
    # scales the answer on x1 alone (1/5) by 1 - 4/5
    path = tmp_path / "pair.paf"
    path.write_text("arg x0 0.8\narg x1 0.2\nset x1\n")
    rec = run_json(capsys, ["solve", str(path), "--mode", "float"])
    assert rec["preprocess"] == "on"
    assert rec["answer"] == repr(float(Fraction(1, 25))) == "0.04"
