"""Dynamic programming over nice tree-decompositions for P-Ext.

Tables are computed bottom-up.  A row pairs a bag-local structure (present
arguments, present attacks, labeling) with witness flags (which arguments
have seen an in-labeled attacker, resp. an undecided attacker) and the
accumulated probability mass of all compatible completions below the node.
That mass covers only the elements already forgotten: each argument's
factor, with those of its uncertain attacks to arguments still in the bag,
is multiplied in once, at the forget node where it leaves the bag.  The
children of a join have therefore forgotten disjoint element sets, and a
joined row's mass is the plain product of the two.  The ``--trace`` dump
renders the bag-local factors back in, so its ``p=`` values are the mass of
every element introduced below the node.

Labels are constrained to the labeling that corresponds to the queried set:
members of S are labeled in, everything else out or undecided, and every
neighbor of an in-labeled argument must be out.  This makes the surviving
labeling unique per scenario, so the root row sums each scenario exactly
once.  Rows are only merged at forget nodes; between forgets duplicate
(structure, witness) rows may coexist, which leaves per-node tables bounded
by a function of the bag alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .core import PAF
from .errors import BudgetExceeded, InputError
from .preprocess import query_ext
from .treedecomp import (
    FORGET,
    INTRO,
    JOIN,
    LEAF,
    NiceTreeDecomposition,
    decompose,
    make_nice,
)

DP_SEMANTICS = ("adm", "com", "stb")

# the three labels a row assigns to its bag arguments
IN = "I"
OUT = "O"
UND = "U"


@dataclass(frozen=True)
class NodeStats:
    kind: str
    bag_size: int
    uncertain_bag_attacks: int
    rows: int


@dataclass
class SolveResult:
    value: Fraction | float
    semantics: str
    mode: str
    width: int
    node_count: int
    node_stats: dict[int, NodeStats]
    trace: list[str] | None = None

    def max_table_rows(self) -> int:
        return max(s.rows for s in self.node_stats.values())


def _converter(mode: str):
    if mode == "float":
        return float
    if mode == "rational":
        return lambda f: f
    raise InputError(f"unknown arithmetic mode {mode!r}")


def p_ext(paf: PAF, sigma: str, S, mode: str = "rational", td=None):
    """Probability that S is a sigma-extension.

    Applies the forced-label preprocessing of ``paftd solve`` (complete
    semantics, no ``td`` given) before the DP; :func:`solve` is the raw DP.
    """
    _converter(mode)  # reject an unknown mode even when preprocessing alone answers

    def engine(instance):
        return solve(instance, sigma, S, mode=mode, td=td).value

    return query_ext(paf, sigma, S, engine, mode=mode, td=td)[0]


def solve_with_trace(paf: PAF, sigma: str, S, mode: str = "rational", td=None):
    """Like :func:`solve` but returns the value and the per-node table dump."""
    result = solve(paf, sigma, S, mode=mode, td=td, trace=True)
    return result.value, result.trace


def solve(
    paf: PAF,
    sigma: str,
    S,
    mode: str = "rational",
    td: NiceTreeDecomposition | None = None,
    heuristic: str = "min-fill",
    order=None,
    trace: bool = False,
    deadline: float | None = None,
) -> SolveResult:
    if sigma not in DP_SEMANTICS:
        raise InputError(f"semantics {sigma!r} is not supported by the DP solver")
    S = paf.af.check_subset(S)
    conv = _converter(mode)

    if td is None:
        td = make_nice(decompose(paf.af, heuristic=heuristic, order=order))
    else:
        violations = td.validate(paf.af)
        if violations:
            raise InputError("invalid tree-decomposition: " + "; ".join(violations))

    ctx = _Context(paf, S, sigma, conv)
    tables: dict[int, list] = {}
    stats: dict[int, NodeStats] = {}
    trace_lines: list[str] | None = [] if trace else None

    for t in td.post_order():
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded("solver ran out of time")
        node = td.nodes[t]
        if node.kind == LEAF:
            rows = [(frozenset(), frozenset(), (), frozenset(), frozenset(), ctx.one)]
        elif node.kind == INTRO:
            rows = _introduce(tables.pop(node.children[0]), node.arg, node.bag, ctx)
        elif node.kind == FORGET:
            rows = _forget(tables.pop(node.children[0]), node.arg, ctx)
        else:
            left = tables.pop(node.children[0])
            right = tables.pop(node.children[1])
            rows = _join(left, right)
        tables[t] = rows
        stats[t] = NodeStats(
            node.kind,
            len(node.bag),
            sum(1 for r in ctx.bag_attacks(node.bag) if not ctx.att_certain[r]),
            len(rows),
        )
        if trace_lines is not None:
            trace_lines.extend(_dump(t, rows, node.bag, ctx, mode))

    value = ctx.zero
    for row in tables[td.root]:
        value = value + row[5]
    return SolveResult(
        value,
        sigma,
        mode,
        td.width(),
        td.node_count(),
        stats,
        trace_lines,
    )


class _Context:
    """Per-solve constants: probabilities in the active number type,
    certainty flags, and attack adjacency."""

    def __init__(self, paf: PAF, S, sigma, conv):
        self.S = S
        self.sigma = sigma
        self.parg = {a: conv(p) for a, p in paf.arg_prob.items()}
        self.patt = {r: conv(p) for r, p in paf.att_prob.items()}
        self.arg_certain = {a: paf.arg_certain(a) for a in paf.af.arguments}
        self.att_certain = {r: paf.att_certain(r) for r in paf.af.attacks}
        self.one = conv(Fraction(1))
        self.zero = conv(Fraction(0))
        self.attacks = paf.af.attacks
        incident: dict[str, list] = {a: [] for a in paf.af.arguments}
        for r in sorted(paf.af.attacks):
            incident[r[0]].append(r)
            if r[1] != r[0]:
                incident[r[1]].append(r)
        self.incident = incident

    def bag_attacks(self, bag):
        return [r for r in self.incident_union(bag) if r[0] in bag and r[1] in bag]

    def incident_union(self, bag):
        seen = set()
        for a in bag:
            seen.update(self.incident[a])
        return sorted(seen)

    def factor(self, a: str, present, atts):
        """Probability factor of ``a`` in a row's structure: its presence or
        absence, and, if present, each uncertain attack between ``a`` and the
        other ``present`` arguments.  Applied once, where ``a`` is forgotten."""
        if a not in present:
            return self.one - self.parg[a]
        factor = self.parg[a]
        for r in self.incident[a]:
            if r[0] in present and r[1] in present and not self.att_certain[r]:
                factor = factor * (self.patt[r] if r in atts else self.one - self.patt[r])
        return factor

    def labels_for(self, a: str):
        if a in self.S:
            return (IN,)
        if self.sigma == "stb":
            return (OUT,)
        return (OUT, UND)


def _introduce(rows, a, bag, ctx: _Context):
    out = []
    certain_a = ctx.arg_certain[a]
    s_bag = ctx.S & bag
    for row in rows:
        present, atts, lab, ow, uw, p = row
        if not certain_a:
            out.append(row)

        labd = dict(lab)
        incident = [
            (x, y)
            for x, y in ctx.incident[a]
            if (x == a or x in present) and (y == a or y in present)
        ]
        forced = tuple(r for r in incident if ctx.att_certain[r])
        optional = [r for r in incident if not ctx.att_certain[r]]

        for rmask in range(1 << len(optional)):
            chosen = forced + tuple(r for i, r in enumerate(optional) if rmask >> i & 1)
            for label_a in ctx.labels_for(a):
                labd[a] = label_a
                # conflict discipline: every neighbor of an in-label is out
                ok = True
                for x, y in chosen:
                    lx, ly = labd[x], labd[y]
                    if (lx == IN and ly != OUT) or (ly == IN and lx != OUT):
                        ok = False
                        break
                if not ok:
                    continue
                new_ow, new_uw = set(ow), set(uw)
                for x, y in chosen:
                    lx = labd[x]
                    if lx == IN:
                        new_ow.add(y)
                    elif lx == UND:
                        new_uw.add(y)
                out.append(
                    (
                        present | {a},
                        atts | frozenset(chosen),
                        tuple(sorted(labd.items())),
                        frozenset(new_ow),
                        frozenset(new_uw),
                        p,
                    )
                )
        del labd[a]

    if s_bag:
        out = [row for row in out if s_bag <= row[0]]
    return out


def _forget(rows, a, ctx: _Context):
    merged: dict[tuple, object] = {}
    factors: dict[tuple, object] = {}
    com = ctx.sigma == "com"
    for present, atts, lab, ow, uw, p in rows:
        if a in present:
            label_a = dict(lab)[a]
            if label_a == OUT and a not in ow:
                continue
            if label_a == UND and com and a not in uw:
                continue
        factor = factors.get((present, atts))
        if factor is None:
            factor = factors[present, atts] = ctx.factor(a, present, atts)
        p = p * factor
        if a in present:
            present = present - {a}
            atts = frozenset(r for r in atts if a not in r)
            lab = tuple(item for item in lab if item[0] != a)
            ow = ow - {a}
            uw = uw - {a}
        key = (present, atts, lab, ow, uw)
        if key in merged:
            merged[key] = merged[key] + p
        else:
            merged[key] = p
    return [key + (p,) for key, p in merged.items()]


def _join(left, right):
    by_structure: dict[tuple, list] = {}
    for row in right:
        by_structure.setdefault(row[:3], []).append(row)
    out = []
    for present, atts, lab, ow1, uw1, p1 in left:
        for _, _, _, ow2, uw2, p2 in by_structure.get((present, atts, lab), ()):
            out.append((present, atts, lab, ow1 | ow2, uw1 | uw2, p1 * p2))
    return out


def _format_value(p, mode: str) -> str:
    return repr(p) if mode == "float" else str(p)


def _dump(node_id: int, rows, bag, ctx: _Context, mode: str) -> list[str]:
    lines = []
    for present, atts, lab, ow, uw, p in sorted(
        rows, key=lambda r: (sorted(r[0]), sorted(r[1]), r[2], sorted(r[3]), sorted(r[4]))
    ):
        # render the mass of the whole subtree: forget the bag in sorted order
        remaining = present
        for a in sorted(bag):
            p = p * ctx.factor(a, remaining, atts)
            remaining = remaining - {a}
        labd = dict(lab)
        ins = ",".join(sorted(x for x, l in labd.items() if l == IN))
        outs = ",".join(sorted(x for x, l in labd.items() if l == OUT))
        unds = ",".join(sorted(x for x, l in labd.items() if l == UND))
        args = ",".join(sorted(present))
        attstr = ",".join(f"{x}>{y}" for x, y in sorted(atts))
        lines.append(
            f"node={node_id} F=({args};{attstr}) L=({ins};{outs};{unds}) "
            f"lw=({','.join(sorted(ow))};{','.join(sorted(uw))}) p={_format_value(p, mode)}"
        )
    return lines
