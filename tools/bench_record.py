"""Record a BENCH file: the benchmark's figures at one commit.

    python3 tools/bench_record.py --pr N [--root DIR]

Runs ``python3 perfbench/run.py`` of the tree at ``--root`` (default: this
repository) with its default seed and duration, in fresh processes: ``RUNS``
times per workload with ``--trace 0``, then ``TRACED_RUNS`` times per
workload with ``--trace 1``, the workloads taking turns in both.  Writes
``BENCH_<pr>.json`` at the root of that tree: its git sha, whether the tree
has uncommitted changes, the git tree id of the ``src`` it measured (equal
to ``git rev-parse <commit>:src`` of the commit that holds that code,
committed or not), the Python version and the host, and per workload the
median and range of every end-to-end metric of ``BENCHMARK.json``, whether
every run answered correctly, and the median and values of every per-layer
figure of the traced runs.  One traced run's figures swing with the host's
speed; the median of several swings less.

A workload whose untraced ``qps`` rises or falls monotonically over all its
runs, the last more than ``DRIFT`` (5%) from the first, or steps once, its
runs splitting into two consecutive groups of at least two runs each with
every run of one group more than ``DRIFT`` below every run of the other,
most likely ran while the host changed speed: it gets ``"speed_drift":
true`` and a warning on standard error, and such a file should be recorded
again.  Nothing is refused for it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = 5
TRACED_RUNS = 3
DRIFT = 0.05


def _run(root: Path, workload: str, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def _host() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        names = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                 if line.startswith("model name")]
        cpu = names[0] if names else cpu
    return {"machine": platform.machine(), "cpu": cpu, "cpus": os.cpu_count()}


def _git(root: Path, *args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          env=env).stdout.strip()


def _src_tree(root: Path) -> str | None:
    """The git tree id of ``src`` as it is on disk, through a scratch index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        _git(root, "read-tree", "HEAD", env=env)
        _git(root, "add", "-A", "--", "src", env=env)
        return _git(root, "write-tree", "--prefix=src/", env=env) or None


def _runs(root: Path, names: list[str], trace: int, count: int) -> dict[str, list[dict]]:
    """``count`` runs of every workload, the workloads taking turns."""
    runs = {w: [] for w in names}
    for i in range(count):
        for w in names:
            runs[w].append(_run(root, w, trace))
            qps = runs[w][-1]["metrics"]["trace.qps_traced" if trace else "qps"]["value"]
            print(f"{w} --trace {trace} run {i + 1}/{count}: {qps:.4g} qps", file=sys.stderr)
    return runs


def speed_drift(values: list[float]) -> bool:
    """Whether ``values`` rise or fall monotonically and the last is more than
    ``DRIFT`` from the first, or step once: the first ``k`` and the rest, at
    least two each, with every value of one more than ``DRIFT`` below every
    value of the other."""
    steps = list(zip(values, values[1:]))
    monotonic = all(a <= b for a, b in steps) or all(a >= b for a, b in steps)
    if monotonic and abs(values[-1] - values[0]) > DRIFT * values[0]:
        return True
    for k in range(2, len(values) - 1):
        before, after = values[:k], values[k:]
        if max(before) < (1 - DRIFT) * min(after) or max(after) < (1 - DRIFT) * min(before):
            return True
    return False


def record(root: Path, pr: int) -> dict:
    bench = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    plain = _runs(root, names, 0, RUNS)
    traced = _runs(root, names, 1, TRACED_RUNS)
    workloads = {}
    for w in names:
        end_to_end = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in plain[w]]
            end_to_end[m["name"]] = {"median": statistics.median(values), "min": min(values),
                                     "max": max(values), "unit": m["unit"], "values": values}
        per_layer = {}
        for k, v in traced[w][0]["metrics"].items():
            values = [r["metrics"][k]["value"] for r in traced[w]]
            per_layer[k] = {"median": statistics.median(values), "unit": v["unit"], "values": values}
        runs_all = plain[w] + traced[w]
        qps = end_to_end["qps"]["values"]
        drift = speed_drift(qps)
        if drift:
            print(f"warning: {w} qps drifted or stepped over its runs "
                  f"({', '.join(f'{q:.4g}' for q in qps)}); record this file again",
                  file=sys.stderr)
        workloads[w] = {
            "correct": all(r["correct"] for r in runs_all),
            "failed": sum(r["failed"] for r in runs_all),
            "speed_drift": drift,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
    return {
        "pr": pr,
        "git_sha": _git(root, "rev-parse", "HEAD") or None,
        "uncommitted_changes": bool(_git(root, "status", "--porcelain")),
        "src_tree": _src_tree(root),
        "python": platform.python_version(),
        "host": _host(),
        "runs": RUNS,
        "traced_runs": TRACED_RUNS,
        "workloads": workloads,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", type=int, required=True, help="the number in BENCH_<pr>.json")
    p.add_argument("--root", type=Path, default=ROOT, help="the tree to measure")
    args = p.parse_args(argv)

    result = record(args.root.resolve(), args.pr)
    out = args.root / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all(w["correct"] and not w["failed"] for w in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
