"""Acceptance gate: one printed pass/fail line per criterion.

Each test exercises one numbered criterion end to end at its stated
tolerance and records a single pass/fail line; the lines are echoed in
an "acceptance criteria" section after the test run.
"""

import random
import resource
import time
from fractions import Fraction

import numpy as np
import pytest

from paftd import (
    GridSpec,
    Subframework,
    count_ext,
    decompose,
    enumerate_subframeworks,
    forced_labeling,
    generate_grid,
    generate_grid_document,
    grid_elimination_order,
    p_acc_oracle,
    p_ext_oracle,
    parse_paf,
    parse_td,
    simplify_for_ext,
    solve,
)
from paftd.generator import draw_probability

import conftest
from conftest import FIXTURES, random_paf, random_subset


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {detail}"
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def cycle5():
    return parse_paf((FIXTURES / "cycle5.paf").read_text())


def test_criterion_1_cycle5_enumeration(cycle5):
    started = time.monotonic()
    subs = dict(enumerate_subframeworks(cycle5.paf))
    target = Subframework(
        frozenset({"b", "c", "d", "e"}),
        frozenset({("b", "c"), ("c", "b"), ("d", "c"), ("c", "d"), ("e", "d")}),
    )
    elapsed = time.monotonic() - started
    ok = len(subs) == 24 and subs.get(target) == Fraction(27, 1000) and elapsed < 1
    report(
        1,
        ok,
        f"24 subframeworks (got {len(subs)}), target scenario 27/1000 (got {subs.get(target)}), "
        f"{elapsed:.3f}s",
    )


def test_criterion_2_golden_answers(cycle5):
    S = {"a", "c", "e"}
    t0 = time.monotonic()
    exact = solve(cycle5.paf, "com", S).value
    t1 = time.monotonic()
    approx = solve(cycle5.paf, "com", S, mode="float").value
    t2 = time.monotonic()
    acc = p_acc_oracle(cycle5.paf, "com", "e")
    t3 = time.monotonic()
    ok_solve = exact == Fraction(18, 25) and abs(approx - 0.72) <= 1e-12
    # Credulous acceptance of the certain argument e. It fails only when
    # d>e is present (1/2) and nothing defends e: c (present 9/10) attacks
    # both b and d, so c must be absent (1/10); then e>d must be absent
    # (7/10) and a must not defend e, i.e. a absent (2/10) or a present
    # (8/10) with a>b absent (3/10), leaving b unattacked. Failure mass
    # 1/2 * 1/10 * 7/10 * (2/10 + 8/10 * 3/10) = 0.0154, so 1 - 0.0154 =
    # 4923/5000 (not 49/50, which is 0.9846 rounded to two places).
    ok_acc = acc == Fraction(4923, 5000)
    ok_time = (t1 - t0) < 1 and (t2 - t1) < 1 and (t3 - t2) < 1
    report(
        2,
        ok_solve and ok_acc and ok_time,
        f"P_ext(com)={exact} float={approx!r}, P_acc(com,e)={acc} "
        f"(expected 4923/5000), times {t1 - t0:.3f}/{t2 - t1:.3f}/{t3 - t2:.3f}s",
    )


def test_criterion_3_trace_replay(cycle5):
    td = parse_td((FIXTURES / "cycle5.td").read_text())
    res = solve(cycle5.paf, "com", {"a", "c", "e"}, td=td, trace=True)
    value, trace = res.value, res.trace
    wanted = (
        "node=1 F=(a;) L=(a;;) lw=(;) p=4/5",
        "node=13 F=(c,d;c>d,d>c) L=(c;d;) lw=(d;) p=18/25",
        "node=12 F=(a,c,d;a>d,c>d,d>a,d>c) L=(a,c;d;) lw=(d;) p=63/125",
    )
    missing = [w for w in wanted if w not in trace]
    ok = not missing and value == Fraction(18, 25)
    report(3, ok, f"replayed value {value}, missing rows: {missing or 'none'}")


def test_criterion_4_oracle_equivalence():
    rnd = random.Random(20260823)
    started = time.monotonic()
    checked = 0
    worst_float = 0.0
    for _ in range(200):
        paf = random_paf(rnd, max_args=8, max_uncertain=12)
        S = random_subset(rnd, paf)
        for sigma in ("adm", "com", "stb"):
            want = p_ext_oracle(paf, sigma, S)
            got = solve(paf, sigma, S).value
            assert got == want, (sigma, sorted(S), want, got)
            drift = abs(solve(paf, sigma, S, mode="float").value - float(want))
            worst_float = max(worst_float, drift)
            assert drift <= 1e-9
            checked += 1
    elapsed = time.monotonic() - started
    ok = checked == 600 and elapsed < 300
    report(
        4,
        ok,
        f"{checked} DP/oracle comparisons exact, worst float drift "
        f"{worst_float:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_decomposition_invariance():
    rnd = random.Random(77)
    ok = True
    for _ in range(25):
        paf = random_paf(rnd, max_args=7)
        S = random_subset(rnd, paf)
        results = {
            solve(paf, "com", S, td=decompose(paf.af, heuristic="min-fill")).value,
            solve(paf, "com", S, td=decompose(paf.af, heuristic="min-degree")).value,
        }
        names = list(paf.af.arguments)
        for _ in range(5):
            rnd.shuffle(names)
            results.add(solve(paf, "com", S, td=decompose(paf.af, order=list(names))).value)
        if len(results) != 1:
            ok = False
            break
    report(5, ok, "25 instances bit-identical across 3 heuristics + 5 random orders")


def test_criterion_6_preprocessing():
    paf = parse_paf((FIXTURES / "chain5.paf").read_text()).paf
    forced = forced_labeling(paf)
    ok_fig = forced.forced_in == {"a", "d"} and forced.forced_out == {"c"}
    rnd = random.Random(88)
    ok_rand = True
    for _ in range(50):
        p = random_paf(rnd, max_args=6)
        S = random_subset(rnd, p)
        want = p_ext_oracle(p, "com", S)
        red = simplify_for_ext(p, S)
        got = (
            Fraction(0)
            if red.zero
            else red.multiplier * p_ext_oracle(red.paf, "com", S)
        )
        if got != want:
            ok_rand = False
            break
    report(
        6,
        ok_fig and ok_rand,
        f"forcedIn={sorted(forced.forced_in)} forcedOut={sorted(forced.forced_out)}, "
        f"50 random reductions exact: {ok_rand}",
    )


def test_criterion_7_counting_identity():
    rnd = random.Random(99)
    ok = True
    for _ in range(20):
        base = random_paf(rnd, max_args=6)
        paf = type(base)(
            base.af,
            {a: Fraction(1, 2) for a in base.af.arguments},
            {r: 1 for r in base.af.attacks},
        )
        S = random_subset(rnd, paf)
        n = count_ext(paf, "com", S)
        if p_ext_oracle(paf, "com", S) != n * Fraction(1, 2) ** len(paf.af.arguments):
            ok = False
            break
    report(7, ok, "p_ext == count_ext * 0.5^|A| on 20 uniform instances")


def test_criterion_8_scaling():
    sizes = (5, 10, 20, 50)
    max_rows = {}
    within_bound = True
    elapsed = None
    for n in sizes:
        spec = GridSpec(3, n, 12345)
        paf, query = generate_grid(spec)
        t0 = time.monotonic()
        res = solve(paf, "com", query, td=decompose(paf.af, order=grid_elimination_order(spec)))
        dt = time.monotonic() - t0
        if n == 50:
            elapsed = dt
        max_rows[n] = res.max_table_rows()
        for stats in res.node_stats.values():
            if stats.rows > 9**stats.bag_size:
                within_bound = False
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = elapsed < 120 and rss_mb < 8192 and within_bound
    report(
        8,
        ok,
        f"(3,50) solved in {elapsed:.2f}s, RSS {rss_mb:.0f} MB, per-node rows "
        f"within bag-local bound across n in {sizes}: {within_bound} "
        f"(max rows {max_rows})",
    )


def test_criterion_9_generator_distribution():
    rng = np.random.default_rng(0)
    draws = [draw_probability(rng) for _ in range(10_000)]
    dev_one = abs(draws.count(Fraction(1)) / len(draws) - 1 / 91)
    dev_rest = max(
        abs(draws.count(Fraction(k, 10)) / len(draws) - 10 / 91) for k in range(1, 10)
    )
    same = generate_grid_document(GridSpec(3, 5, 7)) == generate_grid_document(
        GridSpec(3, 5, 7)
    )
    ok = dev_one <= 0.01 and dev_rest <= 0.01 and same
    report(
        9,
        ok,
        f"freq deviations: value-1 {dev_one:.4f}, tenths max {dev_rest:.4f}, "
        f"seed determinism: {same}",
    )
