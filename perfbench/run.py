"""Benchmark for paftd: one client, closed loop, in-process CLI queries.

    python3 perfbench/run.py --workload dp-replay --seed 1 --seconds 20 --trace 0

Run from the repository root.  Set-up writes the workload's ``.paf`` and
``.td`` files under ``.perfbench/``; the measured loop then sends one
``paftd.cli.run([...])`` query at a time, the next only after the previous
returned, and repeats whole passes over the workload's queries until
``--seconds`` have elapsed.  Every answer is checked (see
``workloads.check``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The exit code is 1 when any query fails or answers wrongly,
and 2 when paftd cannot be imported from ``src/``.

End-to-end times are in reference seconds (see ``speed.py``); the raw wall
figures are printed above the JSON line.  Per-layer times are raw wall
seconds of the traced passes, which run without the speed probe.

``--write-references`` stores the default seed's exact answers in
``references.json``, which later runs at that seed must reproduce.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCES = HERE / "references.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3


@dataclass
class Outcome:
    query: object
    wall_s: float  # raw wall time
    ref_s: float  # reference seconds; the raw wall time when no probe ran
    error: str | None  # exception type, or "exit <code>"
    answer: object = None

    @property
    def key(self):
        return self.query.instance, self.query.name


def percentile(values, q: float) -> tuple[float, int]:
    """The q-th percentile (0 < q < 100) by linear interpolation between
    closest ranks, with the number of samples it was taken from."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), len(xs)


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_paftd():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import paftd
    except ImportError as exc:
        _fail(f"cannot import paftd from {src}: {exc}")
    if Path(paftd.__file__).resolve().parent != src / "paftd":
        _fail(f"paftd was imported from {paftd.__file__}, not from {src}")


def run_pass(queries, workloads, probe: SpeedProbe | None = None) -> list[Outcome]:
    from paftd import cli

    out = []
    for q in queries:
        buf = io.StringIO()
        started = time.perf_counter()
        mark = probe.mark() if probe else None
        error = None
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(list(q.argv))
            if code != 0:
                error = f"exit {code}"
        except Exception as exc:  # every failure is recorded with its type
            error = type(exc).__name__
        if probe:
            ref, wall = probe.normalized(mark)
        else:
            ref = wall = time.perf_counter() - started
        answer = workloads.parse_answer(buf.getvalue()) if error is None else None
        out.append(Outcome(q, wall, ref, error, answer))
    return out


def _child(args) -> None:
    """Set-up, import included, in a fresh process; optionally one pass for
    its peak RSS."""
    with SpeedProbe() as probe:
        mark = probe.mark()
        _import_paftd()
        import workloads

        queries = workloads.setup(args.workload, args.seed, Path(args.child_dir))
        result = {"setup_s": probe.normalized(mark)[0]}
    if args.child_pass:
        run_pass(queries, workloads)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


def _spawn_setups(args, tmp: Path) -> list[dict]:
    results = []
    for i in range(SETUP_REPEATS):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--child-dir", str(tmp / f"setup{i}")]
        if i == 0:
            argv.append("--child-pass")
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            _fail(f"set-up process failed:\n{proc.stderr}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def _judge(passes, workload, references, workloads):
    """Check every pass's answers; returns (failed keys, wrong-answer messages)."""
    failed, wrong = set(), []
    first = {}
    for outcomes in passes:
        answers = {}
        for o in outcomes:
            if o.error is not None:
                failed.add(o.key)
                continue
            answers[o.key] = o.answer.value
            if first.setdefault(o.key, o.answer.value) != o.answer.value:
                wrong.append(f"{o.key}: answer changed between passes")
                failed.add(o.key)
        for inst, name, message in workloads.check(workload, answers, references):
            wrong.append(message)
            failed.add((inst, name))
    return failed, wrong


def _run_chain(seed: int, tmp: Path, workloads):
    """The long chain of the long-default workload, run once and reported
    apart from the measured passes: today it fails on the recursion limit
    (ROADMAP item 2).  A returned answer must match the chain's own
    transfer computation."""
    query, expected = workloads.write_chain(seed, tmp)
    outcome = run_pass([query], workloads)[0]
    if outcome.error is not None or outcome.answer.value == expected:
        return outcome, None
    return outcome, f"chain: {outcome.answer.value} != {expected}"


def _summary(label: str, value, unit: str, extra: str = "") -> None:
    print(f"  {label:<32} {value:>14.6g} {unit:<6} {extra}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-references", action="store_true")
    p.add_argument("--child-dir", help=argparse.SUPPRESS)
    p.add_argument("--child-pass", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.child_dir:
        _child(args)
        return 0
    _import_paftd()
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    trc = tracer.Tracer()
    with tempfile.TemporaryDirectory(dir=WORK) as tmpname:
        tmp = Path(tmpname)
        setups = _spawn_setups(args, tmp) if args.trace == 0 else []
        queries = workloads.setup(args.workload, args.seed, tmp / "main")

        passes, traced = [], []
        with contextlib.ExitStack() as stack:
            probe = stack.enter_context(SpeedProbe()) if args.trace == 0 else None
            started = time.perf_counter()
            while len(passes) < 1 + args.trace or time.perf_counter() - started < args.seconds:
                # with tracing, untraced and traced passes alternate
                is_traced = args.trace == 1 and len(passes) % 2 == 1
                if is_traced:
                    trc.install()
                try:
                    passes.append(run_pass(queries, workloads, probe))
                finally:
                    if is_traced:
                        trc.uninstall()
                traced.append(is_traced)
        chain = _run_chain(args.seed, tmp, workloads) if args.workload == "long-default" else None

    references = None
    if args.seed == DEFAULT_SEED and not args.write_references:
        references = json.loads(REFERENCES.read_text()).get(args.workload, {})
    failed_keys, wrong = _judge(passes, args.workload, references, workloads)
    if chain is not None and chain[1] is not None:
        wrong.append(chain[1])
    if args.write_references:
        if args.seed != DEFAULT_SEED or failed_keys:
            _fail("references come from a clean pass at the default seed")
        refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
        refs[args.workload] = {f"{o.query.instance}/{o.query.name}": str(o.answer.value)
                               for o in passes[0] if o.query.mode == "rational"}
        REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")

    all_outcomes = [o for ps in passes for o in ps]
    attempted = len(all_outcomes)
    failed = sum(1 for o in all_outcomes if o.key in failed_keys)
    answered = [o for o in all_outcomes if o.error is None]
    zero_share = sum(1 for o in answered if o.answer.value == 0) / max(len(answered), 1)
    short_share = sum(1 for o in answered if o.answer.record.get("preprocess") == "zero") / max(len(answered), 1)

    def pass_qps(outcomes, field="ref_s"):
        ok = sum(1 for o in outcomes if o.key not in failed_keys)
        return ok / sum(getattr(o, field) for o in outcomes)

    def mode_s(outcomes, mode, field="ref_s"):
        return sum(getattr(o, field) for o in outcomes if o.query.mode == mode)

    plain = [ps for ps, t in zip(passes, traced) if not t]
    print(f"perfbench {args.workload} seed={args.seed} passes={len(passes)} "
          f"queries/pass={len(queries)} (one client, closed loop)")
    print("  pass wall s: " + " ".join(
        f"{sum(o.wall_s for o in ps):.3f}{'*' if t else ''}" for ps, t in zip(passes, traced)))
    if args.trace == 0:
        # each query's median over the passes, then the median over queries
        per_query = {}
        for o in (o for ps in plain for o in ps):
            per_query.setdefault(o.key, []).append(o.ref_s)
        p50, _ = percentile([statistics.median(v) for v in per_query.values()], 50)
        metrics = {
            "qps": (statistics.median(pass_qps(ps) for ps in plain), "1/s"),
            "query_s_p50": (p50, "s"),
            "rational_s": (statistics.median(mode_s(ps, "rational") for ps in plain), "s"),
            "float_s": (statistics.median(mode_s(ps, "float") for ps in plain), "s"),
            "peak_rss_mb": (setups[0]["peak_rss_mb"], "MB"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        }
        extras = {
            "qps": f"median of {len(plain)} passes; raw wall "
                   f"{statistics.median(pass_qps(ps, 'wall_s') for ps in plain):.4g}",
            "query_s_p50": f"{len(per_query)} queries x {len(plain)} passes = {len(plain) * len(per_query)} samples",
            "rational_s": f"raw wall {statistics.median(mode_s(ps, 'rational', 'wall_s') for ps in plain):.4g}",
            "float_s": f"raw wall {statistics.median(mode_s(ps, 'float', 'wall_s') for ps in plain):.4g}",
            "setup_s": f"median of {SETUP_REPEATS} processes",
        }
    else:
        traced_passes = [ps for ps, t in zip(passes, traced) if t]
        qps = statistics.median(pass_qps(ps, "wall_s") for ps in plain)
        traced_qps = statistics.median(pass_qps(ps, "wall_s") for ps in traced_passes)
        traced_wall = sum(o.wall_s for ps in traced_passes for o in ps)
        metrics = trc.layer_metrics(len(traced_passes), traced_wall)
        metrics.update({
            "trace.overhead": (traced_qps / qps, "ratio"),
            "trace.qps_traced": (traced_qps, "1/s"),
            "trace.qps_untraced": (qps, "1/s"),
            "answers.zero_share": (zero_share, "ratio"),
            "preprocess.short_circuit_share": (short_share, "ratio"),
            "chain.failed": (float(chain is not None and chain[0].error is not None), "count"),
        })
        extras = {"trace.overhead": f"bases: {len(traced_passes)} traced, {len(plain)} untraced passes"}
        if trc.missing:
            print(f"  missing hooks: {', '.join(sorted(trc.missing))}")
    for name, (value, unit) in metrics.items():
        _summary(name, value, unit, extras.get(name, ""))
    print(f"  zero answers {zero_share:.3f}, preprocessing short-circuits {short_share:.3f} of {len(answered)}")
    errors = sorted({o.error for o in all_outcomes if o.error})
    if errors:
        print(f"  failed queries by type: {', '.join(f'{e} x{sum(o.error == e for o in all_outcomes)}' for e in errors)}")
    if chain is not None:
        outcome = chain[0]
        state = outcome.error or ("answered correctly" if chain[1] is None else "WRONG")
        print(f"  chain of {workloads.CHAIN_LENGTH} arguments, default command: {state} "
              f"after {outcome.wall_s:.2f} s (not part of the measured passes)")
    for message in wrong:
        print(f"  WRONG: {message}")

    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not wrong and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
