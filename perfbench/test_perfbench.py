"""Self-tests for the benchmark's own arithmetic.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from paftd import p_ext_oracle  # noqa: E402
from paftd.oracle import enumerate_subframeworks  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("cli.run", None, 0.0, 10.0),
        ("solver.solve.rational", 0, 1.0, 8.0),
        ("solver.intro.rational", 1, 2.0, 5.0),
        ("solver.intro.rational", 1, 5.0, 6.0),
        ("paffile.parse", 0, 8.5, 9.0),
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx({
        "cli.run": 10.0 - 7.0 - 0.5,
        "solver.solve.rational": 7.0 - 4.0,
        "solver.intro.rational": 4.0,
        "paffile.parse": 0.5,
    })
    # self times of a closed span tree add up to the root's duration
    assert sum(own.values()) == pytest.approx(10.0)


def test_percentile_interpolates_and_counts_samples():
    assert run.percentile([3.0, 1.0, 2.0], 50) == (2.0, 3)
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50) == (2.5, 4)
    assert run.percentile([5.0], 90) == (5.0, 1)
    value, n = run.percentile(range(11), 90)
    assert (value, n) == (pytest.approx(9.0), 11)
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_metric_names_match_the_pattern():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in bench["workloads"]]:
        assert tracer.METRIC_NAME.fullmatch(name), name
    for bad in ("", "a b", "rows/s", "p50%"):
        assert not tracer.METRIC_NAME.fullmatch(bad)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def test_computed_scenario_count_matches_enumeration():
    _, paf, _ = workloads.grid_instance("oracle-small", 2, 3, 4, seed=7)
    assert tracer.scenario_count(paf) == sum(1 for _ in enumerate_subframeworks(paf))


def test_chain_reference_matches_the_oracle():
    paf, S = workloads.chain_instance(7, seed=3)
    assert workloads.chain_reference(paf, S) == p_ext_oracle(paf, "com", S)


def test_check_flags_float_drift_and_broken_relations():
    answers = {
        ("g", "solve-com.rational"): workloads.Fraction(1, 3),
        ("g", "solve-com.float"): 1 / 3 + 1e-6,
        ("g", "ext-com"): workloads.Fraction(1, 4),
        ("g", "acc-grd"): workloads.Fraction(1, 2),
        ("g", "acc-com"): workloads.Fraction(1, 2),
    }
    flagged = {name for _, name, _ in workloads.check("oracle-small", answers)}
    assert flagged == {"solve-com.float", "solve-com.rational"}
    # underflowed float answers pass on the absolute floor
    tiny = {("g", "x.rational"): workloads.Fraction(1, 10**400), ("g", "x.float"): 0.0}
    assert workloads.check("dp-replay", tiny) == []
