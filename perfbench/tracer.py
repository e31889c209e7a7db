"""Spans around paftd's layers, installed from the benchmark's own files.

``Tracer.install`` replaces the public functions of ``paffile``,
``preprocess``, ``treedecomp``, ``solver`` and ``oracle`` (and the solver's
per-node-kind steps) with wrappers that record a span per call, in every
``paftd`` module that holds a reference to them, and ``uninstall`` puts the
originals back.  Spans stay in memory; ``layer_metrics`` turns them into self
times and counts per pass.
"""

from __future__ import annotations

import functools
import gc
import re
import sys
import time
from collections import Counter, defaultdict

from paftd import cli, oracle, paffile, preprocess, solver, treedecomp

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
MODES = ("rational", "float")
KINDS = ("intro", "forget", "join")
STEPS = ("_introduce", "_forget", "_join")  # the solver's per-kind step functions


def self_times(spans) -> dict[str, float]:
    """Per span name: duration minus the part of it its child spans cover.

    ``spans`` holds (name, parent index or None, start, end) tuples; a child
    always lies inside its parent, so the covered part is the sum of the
    children's durations.
    """
    covered = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, _, start, end) in enumerate(spans):
        out[name] += end - start - covered[i]
    return dict(out)


def scenario_count(paf) -> int:
    """Number of certain-respecting scenarios of ``paf``, computed from the
    instance rather than counted during enumeration."""
    uncertain = paf.uncertain_args()
    certain = {a for a in paf.af.arguments if paf.arg_certain(a)}
    u_atts = paf.uncertain_attacks()
    total = 0
    for mask in range(1 << len(uncertain)):
        present = certain | {a for i, a in enumerate(uncertain) if mask >> i & 1}
        total += 1 << sum(1 for x, y in u_atts if x in present and y in present)
    return total


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._mode = "rational"
        self._patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()
        self.counts: Counter = Counter()
        self.rows_max = 0
        self.width_max = 0
        self.oracle_pafs: list = []
        self.gc_s = 0.0
        self._gc_start = None

    # spans -----------------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, i: int) -> None:
        self.spans[i][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, name, after=None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(f"{owner.__name__}.{attr}")
            return
        wrapper = self._wrap(original, name, after)
        owners = [owner] + [m for k, m in list(sys.modules.items()) if k.startswith("paftd")]
        for holder in owners:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, key, value))
                    setattr(holder, key, wrapper)

    # counters taken where the work happens -----------------------------------
    def _after_solve(self, args, kwargs, result) -> None:
        for stats in result.node_stats.values():
            if stats.kind in KINDS:
                self.counts[f"rows.{stats.kind}"] += stats.rows
        self.rows_max = max(self.rows_max, result.max_table_rows())
        self.width_max = max(self.width_max, result.width)
        self.counts["nodes"] += result.node_count
        self.counts["zero_answers"] += result.value == 0

    def _after_forget(self, args, kwargs, result) -> None:
        self.counts["forget_in"] += len(args[0])
        self.counts["forget_out"] += len(result)

    def _after_simplify_ext(self, args, kwargs, result) -> None:
        self.counts["pre.calls"] += 1
        if result.zero:
            self.counts["pre.zero"] += 1
            self.counts["pre.hits"] += 1
            return
        removed = len(args[0].af.arguments) - len(result.paf.af.arguments)
        self.counts["pre.removed"] += removed
        self.counts["pre.hits"] += removed > 0

    def _after_simplify_acc(self, args, kwargs, result) -> None:
        self.counts["pre.calls"] += 1
        self.counts["pre.zero"] += bool(result)
        self.counts["pre.hits"] += bool(result)

    def _after_oracle(self, args, kwargs, result) -> None:
        self.counts["oracle.calls"] += 1
        self.oracle_pafs.append(args[0])

    def _gc_callback(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self.counts["gc"] += 1
            self._gc_start = None

    def install(self) -> None:
        def solve_span(args, kwargs):
            # the node-kind spans below take the mode of the solve running them
            self._mode = kwargs.get("mode", args[3] if len(args) > 3 else "rational")
            return f"solver.solve.{self._mode}"

        self._patch(solver, "solve", solve_span, self._after_solve)
        for kind, attr in zip(KINDS, STEPS):
            after = self._after_forget if kind == "forget" else None
            self._patch(solver, attr, lambda a, k, kind=kind: f"solver.{kind}.{self._mode}", after)
        self._patch(cli, "run", "cli.run")
        self._patch(paffile, "parse_paf", "paffile.parse")
        self._patch(preprocess, "simplify_for_ext", "preprocess", self._after_simplify_ext)
        self._patch(preprocess, "simplify_for_acc", "preprocess", self._after_simplify_acc)
        self._patch(treedecomp, "elimination_order", "treedecomp.order")
        self._patch(treedecomp, "decompose", "treedecomp.assemble")
        self._patch(treedecomp, "make_nice", "treedecomp.nice")
        self._patch(treedecomp, "parse_td", "treedecomp.parse_td")
        self._patch(treedecomp.TreeDecomposition, "validate", "treedecomp.validate")
        self._patch(treedecomp.NiceTreeDecomposition, "validate", "treedecomp.validate")
        for name in ("p_ext_oracle", "p_acc_oracle", "count_ext", "count_acc"):
            self._patch(oracle, name, "oracle", self._after_oracle)
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._gc_callback)
        for holder, key, value in reversed(self._patches):
            setattr(holder, key, value)
        self._patches.clear()

    # ------------------------------------------------------------------------
    def layer_metrics(self, passes: int, query_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced pass, as name -> (value, unit).

        ``query_wall_s`` is the wall time of the traced queries as the client
        measured it, which the summed self times must account for.
        """
        own = self_times([tuple(s) for s in self.spans])
        c = self.counts
        per = lambda x: x / passes  # noqa: E731
        m: dict[str, tuple[float, str]] = {}
        for mode in MODES:
            for kind, attr in zip(KINDS, STEPS):
                if f"paftd.solver.{attr}" not in self.missing:
                    m[f"solver.{kind}_s.{mode}"] = (per(own.get(f"solver.{kind}.{mode}", 0.0)), "s")
            m[f"solver.self_s.{mode}"] = (per(own.get(f"solver.solve.{mode}", 0.0)), "s")
        for kind in KINDS:
            m[f"solver.rows.{kind}"] = (per(c[f"rows.{kind}"]), "count")
        m["solver.rows_max"] = (self.rows_max, "count")
        m["solver.forget_keep_ratio"] = (c["forget_out"] / c["forget_in"] if c["forget_in"] else 0.0, "ratio")
        m["solver.zero_answers"] = (per(c["zero_answers"]), "count")
        for part in ("order", "assemble", "nice", "parse_td", "validate"):
            m[f"treedecomp.{part}_s"] = (per(own.get(f"treedecomp.{part}", 0.0)), "s")
        m["treedecomp.width_max"] = (self.width_max, "count")
        m["treedecomp.nodes"] = (per(c["nodes"]), "count")
        m["preprocess.s"] = (per(own.get("preprocess", 0.0)), "s")
        m["preprocess.calls"] = (per(c["pre.calls"]), "count")
        m["preprocess.zero"] = (per(c["pre.zero"]), "count")
        m["preprocess.removed_args"] = (per(c["pre.removed"]), "count")
        m["preprocess.hit_ratio"] = (c["pre.hits"] / c["pre.calls"] if c["pre.calls"] else 0.0, "ratio")
        oracle_s = own.get("oracle", 0.0)
        scenarios = sum(scenario_count(p) for p in self.oracle_pafs)
        m["oracle.s"] = (per(oracle_s), "s")
        m["oracle.calls"] = (per(c["oracle.calls"]), "count")
        m["oracle.scenarios"] = (per(scenarios), "count_computed")
        m["oracle.scenarios_per_s"] = (scenarios / oracle_s if oracle_s else 0.0, "1/s")
        m["paffile.parse_s"] = (per(own.get("paffile.parse", 0.0)), "s")
        m["cli.self_s"] = (per(own.get("cli.run", 0.0)), "s")
        m["py.gc_s"] = (per(self.gc_s), "s")
        m["py.gc_collections"] = (per(c["gc"]), "count")
        m["trace.self_sum_ratio"] = (sum(own.values()) / query_wall_s, "ratio")
        m["trace.missing_hooks"] = (len(self.missing), "count")
        return m
