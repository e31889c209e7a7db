import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import paftd
from paftd import AF, PAF, cli
from paftd.cli import run
from paftd.paffile import serialize_paf

from conftest import FIXTURES

CYCLE5 = str(FIXTURES / "cycle5.paf")
CHAIN5 = str(FIXTURES / "chain5.paf")
CYCLE5_TD = str(FIXTURES / "cycle5.td")


def run_json(capsys, argv):
    code = run(argv)
    record = json.loads(capsys.readouterr().out)
    return code, record


def test_solve_complete(capsys):
    code, rec = run_json(capsys, ["solve", CYCLE5, "--set", "a,c,e"])
    assert code == 0
    assert rec["answer"] == "18/25"
    assert rec["answerDecimal"] == "0.72"
    assert rec["semantics"] == "complete"
    assert rec["width"] == 2


def test_solve_uses_file_query_set(capsys):
    code, rec = run_json(capsys, ["solve", CYCLE5])
    assert code == 0
    assert rec["answer"] == "18/25"


def test_solve_float_mode(capsys):
    code, rec = run_json(capsys, ["solve", CYCLE5, "--mode", "float"])
    assert code == 0
    assert abs(float(rec["answer"]) - 0.72) < 1e-12


def test_solve_with_td_file_and_trace(capsys):
    code, rec = run_json(
        capsys, ["solve", CYCLE5, "--td-file", CYCLE5_TD, "--trace"]
    )
    assert code == 0
    assert rec["answer"] == "18/25"
    assert any("p=4/5" in line for line in rec["trace"])


@pytest.mark.parametrize("semantics", ["stable", "admissible"])
@pytest.mark.parametrize("mode", ["rational", "float"])
def test_closed_form_answers_as_the_traced_dp(semantics, mode, tmp_path, capsys):
    grid = tmp_path / "grid.paf"
    assert run(["generate", "--grid", "3x8", "--seed", "5"]) == 0
    grid.write_text(capsys.readouterr().out)
    for path in (CYCLE5, str(grid)):
        argv = ["solve", path, "--semantics", semantics, "--mode", mode]
        _, product = run_json(capsys, argv)
        _, traced = run_json(capsys, argv + ["--trace"])
        assert product["answer"] == traced["answer"]
        assert product["answerDecimal"] == traced["answerDecimal"]
        # no decomposition was needed, so the record has no shape
        assert product["width"] is None and product["nodes"] is None
        assert traced["width"] >= 1 and traced["nodes"] > 1
        assert "trace" not in product and traced["trace"]


@pytest.mark.parametrize("semantics", ["stable", "admissible"])
def test_closed_form_with_a_fixed_td_reports_its_nice_form(semantics, tmp_path, capsys):
    assert run(["decompose", CYCLE5]) == 0
    plain = tmp_path / "plain.td"
    plain.write_text(capsys.readouterr().out)
    for td_file in (CYCLE5_TD, str(plain)):
        nice = paftd.make_nice(paftd.parse_td(Path(td_file).read_text()))
        _, rec = run_json(capsys, ["solve", CYCLE5, "--semantics", semantics, "--td-file", td_file])
        assert rec["answer"] == "18/25"
        assert (rec["width"], rec["nodes"]) == (nice.width(), nice.node_count())
    _, rec = run_json(capsys, ["solve", CYCLE5, "--semantics", semantics, "--order", "a,b,c,d,e"])
    af = paftd.parse_paf(Path(CYCLE5).read_text()).paf.af
    nice = paftd.make_nice(paftd.decompose(af, order=["a", "b", "c", "d", "e"]))
    assert (rec["width"], rec["nodes"]) == (nice.width(), nice.node_count())


@pytest.mark.parametrize(
    "td, message",
    [
        (
            "bag 0 a b\nbag 1 b c\nedge 0 1\n",
            "invalid tree-decomposition: argument d appears in no bag; argument e appears in no bag; "
            "attack (a,d) is covered by no bag; attack (c,d) is covered by no bag; attack (d,a) is covered "
            "by no bag; attack (d,c) is covered by no bag; attack (d,e) is covered by no bag; attack (e,d) "
            "is covered by no bag",
        ),
        ("bag 0 a b\nbag 1 b c\nbag 2 c d\nedge 0 1\nedge 1 2\nedge 2 1\n",
         "invalid tree-decomposition: tree-decomposition reaches node 1 twice"),
    ],
    ids=["uncovered", "cycle"],
)
@pytest.mark.parametrize("extra", [(), ("--trace",)], ids=["closed-form", "dp"])
def test_invalid_td_file_under_stable_semantics_exits_3(td, message, extra, tmp_path, capsys):
    td_file = tmp_path / "bad.td"
    td_file.write_text(td)
    assert run(["solve", CYCLE5, "--semantics", "stable", "--td-file", str(td_file), *extra]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    # an unknown query argument is reported before the decomposition, as the DP does
    argv = ["solve", CYCLE5, "--semantics", "stable", "--td-file", str(td_file), "--set", "zz", *extra]
    assert run(argv) == 3
    assert capsys.readouterr().err == "error: unknown argument 'zz'\n"


def test_python_dash_m_runs_the_cli():
    src = str(Path(paftd.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "paftd", "solve", CYCLE5],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["answer"] == "18/25"


def test_one_parser_serves_every_run(capsys):
    assert cli.build_parser() is cli.build_parser()
    runs = [
        ["solve", CYCLE5, "--set", "a,c,e"],
        ["oracle", CYCLE5, "--ext", "a,c,e"],
        ["oracle", CYCLE5, "--acc", "a"],
        ["solve"],  # usage error
        ["solve", CYCLE5, "--semantics", "grounded"],  # input error
        ["solve", CYCLE5, "--set", "a,c,e"],
    ]

    def answer(out):
        return json.loads(out)["answer"] if out else None

    src = str(Path(paftd.__file__).resolve().parents[1])
    fresh = []
    for argv in runs:
        proc = subprocess.run([sys.executable, "-m", "paftd", *argv], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        fresh.append((proc.returncode, answer(proc.stdout)))
    reused = []
    for argv in runs:
        code = run(argv)
        reused.append((code, answer(capsys.readouterr().out)))
    assert [code for code, _ in fresh] == [0, 0, 0, 2, 3, 0]
    assert reused == fresh


def chain_ext_probability(names, arg_prob, att_prob, S) -> Fraction:
    """P(S is complete) on the chain ``names[0] -> names[1] -> ...``, by a
    transfer over positions.  A chain is acyclic, so its one complete
    extension is the grounded one: an argument is in unless its predecessor
    is present, in, and attacks it."""
    weights = {"absent": Fraction(1)}  # the state of the previous argument
    prev = None
    for a in names:
        p = arg_prob[a]
        q = att_prob[prev, a] if prev is not None else 0
        nxt = dict.fromkeys(("absent", "in", "out"), Fraction(0))
        for state, w in weights.items():
            hit = q if state == "in" else 0
            if a in S:
                nxt["in"] += w * p * (1 - hit)
            else:
                nxt["absent"] += w * (1 - p)
                nxt["out"] += w * p * hit
        weights = nxt
        prev = a
    return sum(weights.values())


def write_chain(tmp_path, n):
    """The n-chain with probabilities (i%9+1)/10 and (i%7+2)/10 and every
    other argument in the file's query set, as a .paf file."""
    names = [f"c{i:04d}" for i in range(n)]
    attacks = list(zip(names, names[1:]))
    arg_prob = {a: Fraction(i % 9 + 1, 10) for i, a in enumerate(names)}
    att_prob = {r: Fraction(i % 7 + 2, 10) for i, r in enumerate(attacks)}
    S = frozenset(names[::2])
    path = tmp_path / "chain.paf"
    path.write_text(serialize_paf(PAF(AF(names, attacks), arg_prob, att_prob), query_set=S))
    return path, names, arg_prob, att_prob, S


def test_huge_exact_answer_is_printed(tmp_path, capsys):
    # the exact answer has more digits than Python converts int <-> str by default
    path, names, arg_prob, att_prob, S = write_chain(tmp_path, 5000)
    want = chain_ext_probability(names, arg_prob, att_prob, S)
    assert want.denominator.bit_length() > 16000
    # a fixed order, and the default command: min-fill with preprocessing
    for argv in (["solve", str(path), "--order", ",".join(names)], ["solve", str(path)]):
        code, rec = run_json(capsys, argv)
        assert code == 0
        # compared as text: Fraction(rec["answer"]) would meet the same limit
        assert rec["answer"] == f"{Decimal(want.numerator)}/{Decimal(want.denominator)}"
        assert rec["answerDecimal"].endswith("E-1304")
        code, rec = run_json(capsys, argv + ["--mode", "float"])
        assert code == 0
        assert rec["answer"] == "0.0"


def test_float_answer_below_the_smallest_double_is_zero(tmp_path, capsys):
    # the exact answer is about 5.5E-340, below the smallest subnormal double
    # (4.9E-324), so the correctly rounded float answer is 0.0
    path, names, *_ = write_chain(tmp_path, 1300)
    argv = ["solve", str(path), "--order", ",".join(names)]
    code, rec = run_json(capsys, argv + ["--mode", "float"])
    assert code == 0
    assert rec["answer"] == "0.0"
    code, rec = run_json(capsys, argv)
    assert code == 0
    assert rec["answerDecimal"].startswith("5.503")


def test_oracle_acc(capsys):
    code, rec = run_json(capsys, ["oracle", CYCLE5, "--acc", "e"])
    assert code == 0
    assert rec["answer"] == "4923/5000"


def test_oracle_count_ext(capsys):
    code, rec = run_json(capsys, ["oracle", CYCLE5, "--count-ext", "a,c,e"])
    assert code == 0
    assert isinstance(rec["answer"], int)


def test_oracle_rejects_multiple_queries(capsys):
    code = run(["oracle", CYCLE5, "--acc", "e", "--ext", "a"])
    assert code == 3


def test_preprocess_record(capsys):
    code, rec = run_json(capsys, ["preprocess", CHAIN5])
    assert code == 0
    assert rec["forcedIn"] == ["a", "d"]
    assert rec["forcedOut"] == ["c"]


def test_decompose_and_validate(tmp_path, capsys):
    code = run(["decompose", CYCLE5, "--nice"])
    assert code == 0
    td_text = capsys.readouterr().out
    td_file = tmp_path / "out.td"
    td_file.write_text(td_text)
    code, rec = run_json(capsys, ["validate-td", CYCLE5, "--td-file", str(td_file)])
    assert code == 0
    assert rec["ok"]


def test_seeded_decompose_prints_the_seeded_decomposition(capsys):
    import numpy as np

    af = paftd.parse_paf(Path(CYCLE5).read_text()).paf.af
    printed = []
    for _ in range(2):
        assert run(["decompose", CYCLE5, "--seed", "5"]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert paftd.parse_td(printed[0]).validate(af) == []
    assert printed[0] == paftd.decompose(af, rng=np.random.default_rng(5)).serialize()
    assert printed[0] != paftd.decompose(af).serialize()  # seed 5 breaks cycle5's ties otherwise


def test_validate_td_reports_mismatch(tmp_path, capsys):
    td_file = tmp_path / "bad.td"
    td_file.write_text("bag 0 a\n")
    code, rec = run_json(capsys, ["validate-td", CYCLE5, "--td-file", str(td_file)])
    assert code == 3
    assert not rec["ok"]
    assert rec["violations"]


def test_generate_is_deterministic(capsys):
    assert run(["generate", "--grid", "3x5", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert run(["generate", "--grid", "3x5", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_usage_errors_exit_2(capsys):
    assert run([]) == 2
    assert run(["solve"]) == 2
    capsys.readouterr()


def test_input_errors_exit_3(tmp_path, capsys):
    assert run(["solve", str(tmp_path / "missing.paf")]) == 3
    bad = tmp_path / "bad.paf"
    bad.write_text("arg a 0\n")
    assert run(["solve", str(bad), "--set", "a"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", CYCLE5, "--semantics", "grounded"], "unsupported semantics 'grounded'"),
        (["solve", CHAIN5], "no query set: pass --set or add a set line to the file"),
        (["oracle", CHAIN5], "no query: pass --ext/--acc/--count-ext/--count-acc"),
        (["generate", "--grid", "3by5", "--seed", "1"], "invalid grid spec '3by5'; expected KxN"),
    ],
    ids=["semantics", "no-set", "no-query", "grid-spec"],
)
def test_input_errors_print_their_message(argv, message, capsys):
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{bad}", "--set", "a"],
        ["oracle", "{bad}", "--ext", "a"],
        ["preprocess", "{bad}"],
        ["decompose", "{bad}"],
        ["validate-td", "{bad}", "--td-file", CYCLE5_TD],
        ["solve", CYCLE5, "--set", "a", "--td-file", "{bad}"],
        ["validate-td", CYCLE5, "--td-file", "{bad}"],
    ],
    ids=["solve", "oracle", "preprocess", "decompose", "validate-td", "solve-td-file", "validate-td-file"],
)
def test_undecodable_file_is_an_input_error(tmp_path, argv, capsys):
    bad = tmp_path / "bad"
    bad.write_bytes(b"arg \xff 1\n")  # not UTF-8
    assert run([a.format(bad=bad) for a in argv]) == 3
    assert capsys.readouterr().err.startswith(f"error: cannot read {bad}")


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "{empty}", "--order", "zz"],
        ["solve", "{empty}", "--order", "zz", "--set", ""],
    ],
    ids=["decompose", "solve"],
)
def test_empty_instance_still_checks_the_order(tmp_path, argv, capsys):
    empty = tmp_path / "empty.paf"
    empty.write_text("")
    assert run([a.format(empty=empty) for a in argv]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    for ok in (["decompose", str(empty)], ["decompose", str(empty), "--order", ""]):
        assert run(ok) == 0
        assert capsys.readouterr().out == "bag 0\n"


@pytest.mark.parametrize("argv", [["oracle", CYCLE5, "--ext", "a,c,e"], ["decompose", CYCLE5]])
def test_a_closed_stdout_ends_quietly(argv):
    # the pipe's read end is closed before the command starts, so its first
    # write (or the flush of its buffered output) meets a broken pipe
    src = str(Path(paftd.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "paftd", *argv], stdout=write_end, stderr=subprocess.PIPE,
                              env=dict(os.environ, PYTHONPATH=src), timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_importing_the_cli_does_not_import_numpy():
    # numpy serves only `generate` and `decompose --seed`, which import it
    src = str(Path(paftd.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, paftd.cli; print('numpy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_min_fill_orders_a_large_star_quickly(tmp_path):
    # 1500 leaves attack one hub: rescoring the hub after each leaf must cost
    # its degree, not its square (about 2 s against 22.7 s on a 2-vCPU VM)
    leaves = [f"l{i:04d}" for i in range(1500)]
    star = tmp_path / "star.paf"
    star.write_text(serialize_paf(PAF.certain(AF(["hub", *leaves], [(x, "hub") for x in leaves]))))
    src = str(Path(paftd.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "paftd", "decompose", str(star)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("bag 0 ")


@pytest.mark.parametrize(
    "argv",
    [["generate", "--grid", "2x2", "--seed", "-1"], ["decompose", CYCLE5, "--seed", "-1"]],
)
def test_negative_seed_is_an_input_error(argv, capsys):
    assert run(argv) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "edges",
    [
        ["edge 0 1", "edge 1 2", "edge 2 1"],  # a cycle below the root
        ["edge 0 1", "edge 0 1", "edge 1 2"],  # node 1 hangs below node 0 twice
    ],
)
def test_malformed_td_file_is_an_input_error(tmp_path, edges):
    td_file = tmp_path / "bad.td"
    td_file.write_text("\n".join(["bag 0 a b", "bag 1 b c", "bag 2 c d", *edges]) + "\n")
    src = str(Path(paftd.__file__).resolve().parents[1])
    # a subprocess with a timeout, so that a solver that loops fails the test
    proc = subprocess.run(
        [sys.executable, "-m", "paftd", "solve", CHAIN5, "--set", "a", "--td-file", str(td_file)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ")


def _stable_acceptance(tmp_path, af, arg):
    """``paftd oracle --acc arg --semantics stable --timeout 1`` on the certain
    PAF over ``af``, in a subprocess with a timeout, so that a search that
    runs past --timeout fails the test."""
    path = tmp_path / "in.paf"
    path.write_text(serialize_paf(PAF.certain(af)))
    src = str(Path(paftd.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "paftd", "oracle", str(path), "--acc", arg,
         "--semantics", "stable", "--timeout", "1"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=20,
    )


def test_stable_acceptance_on_a_chain_answers_within_its_timeout(tmp_path):
    # a00 -> a01 -> ... -> a30: the one stable extension holds a30
    names = [f"a{i:02d}" for i in range(31)]
    proc = _stable_acceptance(tmp_path, AF(names, list(zip(names, names[1:]))), "a30")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["answer"] == "1"


def test_stable_acceptance_meets_an_undefended_attacker_first(tmp_path):
    # za is attacked by an unattacked zb, so no stable extension holds za;
    # a search that took the 22 certain 2-cycles p_i <-> q_i before zb
    # would try a side of each, 2**22 ways, and run past --timeout
    pairs = [(f"p{i:02d}", f"q{i:02d}") for i in range(22)]
    attacks = pairs + [(q, p) for p, q in pairs] + [("zb", "za")]
    names = [a for pair in pairs for a in pair] + ["za", "zb"]
    proc = _stable_acceptance(tmp_path, AF(names, attacks), "za")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["answer"] == "0"


def test_stable_acceptance_search_stops_at_its_timeout(tmp_path):
    # 22 certain 2-cycles x_i <-> y_i and a self-attacking zz: no stable
    # extension exists, and the search meets zz only after it picks a side
    # of each other cycle, 2**21 ways; none of the 45 arguments is uncertain,
    # so only the deadline inside the search can stop it
    pairs = [(f"x{i:02d}", f"y{i:02d}") for i in range(22)]
    attacks = pairs + [(y, x) for x, y in pairs] + [("zz", "zz")]
    names = [a for pair in pairs for a in pair] + ["zz"]
    proc = _stable_acceptance(tmp_path, AF(names, attacks), "x00")
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == "error: oracle enumeration ran out of time\n"


def test_capacity_errors_exit_4(tmp_path, capsys):
    lines = [f"arg x{i} 0.5" for i in range(40)]
    big = tmp_path / "big.paf"
    big.write_text("\n".join(lines) + "\n")
    assert run(["oracle", str(big), "--ext", "x0"]) == 4
    capsys.readouterr()


def test_oracle_timeout_exits_4(tmp_path, capsys):
    # 10 uncertain arguments, x0 required: 512 scenarios, past the first deadline check
    paf = tmp_path / "ten.paf"
    paf.write_text("".join(f"arg x{i} 0.5\n" for i in range(10)))
    assert run(["oracle", str(paf), "--ext", "x0", "--timeout", "1e-9"]) == 4
    assert capsys.readouterr().err == "error: oracle enumeration ran out of time\n"


def test_negative_cap_is_a_usage_error(capsys):
    assert run(["oracle", CYCLE5, "--cap", "-1"]) == 2
    assert "argument --cap" in capsys.readouterr().err


def test_zero_cap_answers_a_certain_instance(tmp_path, capsys):
    paf = tmp_path / "certain.paf"
    paf.write_text("arg a 1\narg b 1\natt a b 1\n")
    code, rec = run_json(capsys, ["oracle", str(paf), "--ext", "a", "--cap", "0"])
    assert code == 0
    assert rec["answer"] == "1"


def test_solve_timeout_exits_4(capsys):
    assert run(["solve", CYCLE5, "--set", "a,c,e", "--timeout", "1e-9"]) == 4
    assert capsys.readouterr().err == "error: solver ran out of time\n"


@pytest.mark.parametrize("command", [["solve", CYCLE5, "--set", "a,c,e"], ["oracle", CYCLE5]])
@pytest.mark.parametrize("timeout", ["-1", "nan"])
def test_negative_or_nan_timeout_is_a_usage_error(command, timeout, capsys):
    assert run([*command, "--timeout", timeout]) == 2
    assert "argument --timeout" in capsys.readouterr().err


def test_zero_timeout_means_no_limit(capsys):
    code, rec = run_json(capsys, ["solve", CYCLE5, "--set", "a,c,e", "--timeout", "0"])
    assert code == 0
    assert rec["answer"] == "18/25"


def test_solve_order_fixes_the_decomposition(capsys):
    # preprocessing would remove d, so the order is replayed on the file's instance
    argv = ["solve", CHAIN5, "--set", "a,e", "--order", "a,b,c,d,e"]
    code, rec = run_json(capsys, argv)
    assert code == 0
    assert rec["answer"] == "3/8"
    assert rec["preprocess"] == "off"


@pytest.mark.parametrize("semantics", ["complete", "stable"])
@pytest.mark.parametrize("extra", [[], ["--trace"]], ids=["plain", "trace"])
def test_solve_heuristic_decomposes_the_preprocessed_instance(semantics, extra, tmp_path, capsys):
    """``--heuristic min-fill`` prints the default record, and every heuristic
    the same answer.  The grid's complete query loses arguments to
    preprocessing, so a decomposition of the file's instance would fail
    validation, and preprocessing turned off would change the record."""
    grid = tmp_path / "grid.paf"
    assert run(["generate", "--grid", "3x8", "--seed", "5"]) == 0
    grid.write_text(capsys.readouterr().out)
    assert run_json(capsys, ["preprocess", str(grid)])[1]["removed"]
    for path in (CYCLE5, str(grid)):
        records = []
        for heuristic in ([], ["--heuristic", "min-fill"], ["--heuristic", "min-degree"]):
            code, rec = run_json(capsys, ["solve", path, "--semantics", semantics, *heuristic, *extra])
            assert code == 0
            del rec["wallMillis"]
            records.append(rec)
        default, min_fill, min_degree = records
        assert min_fill == default
        assert min_degree["answer"] == default["answer"]
        assert min_degree["preprocess"] == default["preprocess"]
    assert default["preprocess"] == ("on" if semantics == "complete" else "off")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", CYCLE5, "--heuristic", "given-order", "--order", "a,b,c,d,e"],
        ["solve", CYCLE5, "--td-file", CYCLE5_TD, "--heuristic", "min-degree"],
        ["solve", CYCLE5, "--td-file", CYCLE5_TD, "--order", "a,b,c,d,e"],
        ["decompose", CYCLE5, "--heuristic", "min-degree", "--order", "a,b,c,d,e"],
        # a seed randomizes heuristic tie-breaks, and a fixed order has none
        ["decompose", CHAIN5, "--order", "a,b,c,d,e", "--seed", "3"],
    ],
    ids=[
        "given-order",
        "td-file-and-heuristic",
        "td-file-and-order",
        "decompose-heuristic-and-order",
        "decompose-order-and-seed",
    ],
)
def test_decomposition_choices_exclude_each_other(argv, capsys):
    assert run(argv) == 2
    capsys.readouterr()


def test_oracle_falls_back_to_the_file_query_set(capsys):
    code, rec = run_json(capsys, ["oracle", CYCLE5])
    assert code == 0
    assert rec["answer"] == "18/25"


def test_oracle_falls_back_to_the_file_query_argument(tmp_path, capsys):
    path = tmp_path / "acc.paf"
    path.write_text("arg a 0.5\narg b 1\natt a b 1\nquery b\n")
    code, rec = run_json(capsys, ["oracle", str(path)])
    assert code == 0
    assert rec["answer"] == "1/2"


def test_oracle_acc_preprocessed_to_zero(capsys):
    code, rec = run_json(capsys, ["oracle", CHAIN5, "--acc", "c", "--preprocess", "on"])
    assert code == 0
    assert rec["answer"] == "0"


def test_oracle_count_acc(capsys):
    code, rec = run_json(capsys, ["oracle", CYCLE5, "--count-acc", "e"])
    assert code == 0
    assert rec["answer"] == 22


def test_preprocess_record_with_set(capsys):
    code, rec = run_json(capsys, ["preprocess", CHAIN5, "--set", "a"])
    assert code == 0
    assert rec["multiplier"] == "1/2"
    assert rec["removed"] == ["d"]
    code, rec = run_json(capsys, ["preprocess", CHAIN5, "--set", "b"])
    assert code == 0
    assert rec["zero"] is True


# each TD breaks one rule of the nice form, against the instance "arg a 1";
# a node's type line follows its bag line
@pytest.mark.parametrize(
    "td, violation",
    [
        ("bag 0 a|type 0 intro:a|bag 1|type 1 leaf|edge 0 1", "root bag is not empty"),
        (
            "bag 0|type 0 forget:a|bag 1 a|type 1 intro:a|bag 2|type 2 leaf|bag 3|type 3 leaf"
            "|edge 0 1|edge 1 2|edge 2 3",
            "leaf node 2 has children",
        ),
        ("bag 0|type 0 forget:a|bag 1 a|type 1 leaf|edge 0 1", "leaf node 1 has a non-empty bag"),
        ("bag 0|type 0 forget:a|bag 1 a|type 1 intro:a|edge 0 1", "introduce node 1 must have one child"),
        (
            "bag 0|type 0 forget:a|bag 1 a|type 1 intro:a|bag 2 a|type 2 intro:a|bag 3|type 3 leaf"
            "|edge 0 1|edge 1 2|edge 2 3",
            "introduce node 1 does not add exactly 'a'",
        ),
        (
            "bag 0|type 0 forget:a|bag 1 a|type 1 intro:a|bag 2|type 2 forget:a|edge 0 1|edge 1 2",
            "forget node 2 must have one child",
        ),
        (
            "bag 0|type 0 forget:a|bag 1 a|type 1 forget:a|bag 2 a|type 2 intro:a|bag 3|type 3 leaf"
            "|edge 0 1|edge 1 2|edge 2 3",
            "forget node 1 does not drop exactly 'a'",
        ),
        (
            "bag 0|type 0 forget:a|bag 1 a|type 1 join|bag 2 a|type 2 intro:a|bag 3|type 3 leaf"
            "|edge 0 1|edge 1 2|edge 2 3",
            "join node 1 must have two children",
        ),
        (
            "bag 0|type 0 forget:a|bag 1 a|type 1 join|bag 2 a|type 2 intro:a|bag 3|type 3 leaf"
            "|bag 4|type 4 leaf|edge 0 1|edge 1 2|edge 1 4|edge 2 3",
            "join node 1 bags differ",
        ),
    ],
    ids=[
        "root-not-empty",
        "leaf-with-children",
        "leaf-with-bag",
        "intro-child-count",
        "intro-adds-wrong",
        "forget-child-count",
        "forget-drops-wrong",
        "join-child-count",
        "join-bags-differ",
    ],
)
def test_validate_td_reports_each_nice_shape_violation(tmp_path, capsys, td, violation):
    paf_file, td_file = tmp_path / "a.paf", tmp_path / "bad.td"
    paf_file.write_text("arg a 1\n")
    td_file.write_text(td.replace("|", "\n") + "\n")
    code, rec = run_json(capsys, ["validate-td", str(paf_file), "--td-file", str(td_file)])
    assert code == 3
    assert rec["violations"] == [violation]
