"""The benchmark's workloads: instance files written at set-up, the CLI
queries run on them, and the checks their answers must pass.

Every grid instance has a fixed *shape*: the topology, the pattern of
certain (probability 1) elements and the query set all come from
``generate_grid`` with a seed fixed here.  The run's ``--seed`` redraws every
uncertain probability from the generator's own distribution (uniform over
0.1..0.9), so each seed gives different inputs and different answers while
the table sizes, and hence the work per query, stay the same across seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from paftd import cli, core, generator, paffile, treedecomp

WORKLOADS = ("dp-replay", "long-default", "oracle-small")

# (rows, cols, shape seed) per workload
SHAPES = {
    "dp-replay": ((4, 30, 2),),
    "long-default": ((2, 300, 1),),
    "oracle-small": ((2, 4, 2), (2, 4, 3), (3, 3, 2)),
}
CHAIN_LENGTH = 1000

FLOAT_REL_TOL = 1e-9
FLOAT_ABS_FLOOR = 1e-300


@dataclass(frozen=True)
class Query:
    instance: str
    name: str
    argv: tuple[str, ...]
    mode: str  # "rational" or "float"; oracle answers are rational


@dataclass
class Answer:
    value: object  # Fraction, float or int
    record: dict


def _redrawn(paf: core.PAF, rng: np.random.Generator) -> core.PAF:
    def draw(p):
        return p if p == 1 else Fraction(int(rng.integers(1, 10)), 10)

    return core.PAF(
        paf.af,
        {a: draw(paf.arg_prob[a]) for a in paf.af.arguments},
        {r: draw(paf.att_prob[r]) for r in sorted(paf.af.attacks)},
    )


def grid_instance(workload: str, rows: int, cols: int, shape_seed: int, seed: int):
    """The shape's PAF with redrawn probabilities, and the query set."""
    spec = generator.GridSpec(rows, cols, shape_seed)
    shape, query = generator.generate_grid(spec)
    paf = _redrawn(shape, np.random.default_rng([seed, rows, cols, shape_seed]))
    if workload == "oracle-small":
        # the generator's 4% query rate leaves 8-9 arguments mostly without a
        # set; the grounded extension of the all-present framework is a set
        # that is complete in at least one scenario
        S = core.grounded_extension(paf.af)
    else:
        # a certain argument outside S makes most complete and stable answers
        # zero outright, which would let a shortcut pass for a DP speed-up
        S = query | {a for a in paf.af.arguments if paf.arg_certain(a)}
    return spec, paf, frozenset(S)


def chain_instance(n: int, seed: int):
    """A pure chain a1 -> a2 -> ... -> an; S holds the odd positions, which is
    the grounded extension when everything is present."""
    rng = np.random.default_rng([seed, n])
    names = [f"c{i:04d}" for i in range(1, n + 1)]
    attacks = list(zip(names, names[1:]))
    af = core.AF(names, attacks)
    shape = core.PAF(af, {a: Fraction(1, 2) for a in names}, {r: Fraction(1, 2) for r in attacks})
    return _redrawn(shape, rng), frozenset(names[::2])


def chain_reference(paf: core.PAF, S) -> Fraction:
    """P(S is complete) on a pure chain, by a transfer over positions.

    A chain is acyclic, so its only complete extension is the grounded one:
    an argument is in unless its predecessor is present, in, and attacks it.
    """
    names = paf.af.arguments
    absent, lab_in, lab_out = 0, 1, 2
    weights = {absent: Fraction(1)}
    prev = None
    for a in names:
        p = paf.arg_prob[a]
        q = paf.att_prob[(prev, a)] if prev is not None else Fraction(0)
        nxt = {absent: Fraction(0), lab_in: Fraction(0), lab_out: Fraction(0)}
        for state, w in weights.items():
            if a not in S:
                nxt[absent] += w * (1 - p)
            hit = q if state == lab_in else Fraction(0)
            if a in S:
                nxt[lab_in] += w * p * (1 - hit)
            else:
                nxt[lab_out] += w * p * hit
        weights = {k: v for k, v in nxt.items() if v}
        prev = a
    return sum(weights.values(), Fraction(0))


def _cli_text(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(list(argv))
    if code != 0:
        raise RuntimeError(f"paftd {' '.join(argv)} exited {code}")
    return buf.getvalue()


def setup(workload: str, seed: int, directory: Path) -> list[Query]:
    """Write the workload's instance (and TD) files and return its queries."""
    directory.mkdir(parents=True, exist_ok=True)
    queries: list[Query] = []
    for rows, cols, shape_seed in SHAPES[workload]:
        spec, paf, S = grid_instance(workload, rows, cols, shape_seed, seed)
        inst = f"g{rows}x{cols}s{shape_seed}"
        paf_path = directory / f"{inst}.paf"
        header = (f"shape {rows}x{cols} seed={shape_seed}; probabilities redrawn with seed={seed}",)
        paf_path.write_text(paffile.serialize_paf(paf, query_set=S, header=header))
        p, s = str(paf_path), ",".join(sorted(S))
        if workload == "dp-replay":
            td_path = directory / f"{inst}.td"
            order = generator.grid_elimination_order(spec)
            td = treedecomp.make_nice(treedecomp.decompose(paf.af, order=order))
            td_path.write_text(td.serialize())
            base = ("solve", p, "--semantics", "complete", "--td-file", str(td_path))
            queries += [
                Query(inst, "com-replay.rational", base, "rational"),
                Query(inst, "com-replay.float", base + ("--mode", "float"), "float"),
            ]
        elif workload == "long-default":
            td_path = directory / f"{inst}.td"
            td_path.write_text(_cli_text(("decompose", p, "--nice")))
            stb = ("solve", p, "--semantics", "stable", "--td-file", str(td_path))
            queries += [
                Query(inst, "com-default.rational", ("solve", p), "rational"),
                Query(inst, "com-default.float", ("solve", p, "--mode", "float"), "float"),
                Query(inst, "stb-replay.rational", stb, "rational"),
                Query(inst, "stb-replay.float", stb + ("--mode", "float"), "float"),
            ]
        else:
            acc = min(S) if S else paf.af.arguments[0]
            solve = ("solve", p, "--semantics", "complete", "--set", s)
            queries += [
                Query(inst, "acc-com", ("oracle", p, "--acc", acc), "rational"),
                Query(inst, "acc-grd", ("oracle", p, "--acc", acc, "--semantics", "grounded"), "rational"),
                Query(inst, "count-ext-com", ("oracle", p, "--count-ext", s), "rational"),
                Query(inst, "ext-stb", ("oracle", p, "--ext", s, "--semantics", "stable"), "rational"),
                Query(inst, "ext-com", ("oracle", p, "--ext", s), "rational"),
                Query(inst, "solve-com.rational", solve, "rational"),
                Query(inst, "solve-com.float", solve + ("--mode", "float"), "float"),
            ]
    return queries


def write_chain(seed: int, directory: Path) -> tuple[Query, Fraction]:
    """The long-default chain: the plain default command on CHAIN_LENGTH
    arguments, with its independently computed answer."""
    paf, S = chain_instance(CHAIN_LENGTH, seed)
    path = directory / "chain.paf"
    path.write_text(paffile.serialize_paf(paf, query_set=S))
    return Query("chain", "com-default.rational", ("solve", str(path)), "rational"), chain_reference(paf, S)


def parse_answer(text: str) -> Answer:
    record = json.loads(text.strip().splitlines()[-1])
    raw = record["answer"]
    if isinstance(raw, int):
        value = raw
    elif record["mode"] == "float":
        value = float(raw)
    else:
        value = Fraction(raw)
    return Answer(value, record)


def _close(f: float, r: Fraction) -> bool:
    return math.isclose(f, float(r), rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_FLOOR)


# (workload, query, query it is compared with, relation that must hold)
RELATIONS = (
    ("oracle-small", "solve-com.rational", "ext-com", "=="),  # DP equals the oracle
    ("oracle-small", "acc-grd", "acc-com", "<="),  # the grounded extension is complete
    ("long-default", "stb-replay.rational", "com-default.rational", "<="),  # stable is complete
)


def check(workload: str, answers: dict[tuple[str, str], object], references=None):
    """Cross-checks over one pass's answers.

    ``answers`` maps (instance, query name) to the parsed value of every query
    that returned one.  ``references`` maps "instance/name" to stored exact
    answers and is given for the default seed only.  Returns (instance, query
    name, message) for each check that failed.
    """
    errors = []
    for (inst, name), value in answers.items():
        if name.endswith(".float"):
            exact = answers.get((inst, name[: -len("float")] + "rational"))
            if exact is not None and not _close(value, exact):
                errors.append((inst, name, f"{inst}/{name}: float {value!r} vs rational {exact}"))
        elif references is not None:
            want = references.get(f"{inst}/{name}")
            if str(value) != want:
                errors.append((inst, name, f"{inst}/{name}: {value} differs from reference {want}"))
    for wl, name, other, relation in RELATIONS:
        if wl != workload:
            continue
        for inst in sorted({inst for inst, _ in answers}):
            a, b = answers.get((inst, name)), answers.get((inst, other))
            if a is not None and b is not None and not (a == b if relation == "==" else a <= b):
                errors.append((inst, name, f"{inst}: {name} {a} not {relation} {other} {b}"))
    return errors
