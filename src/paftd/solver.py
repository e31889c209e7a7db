"""Dynamic programming over nice tree-decompositions for P-Ext.

Tables are computed bottom-up.  A row is ``(present, atts, und, ow, uw, p)``:
five int bitmasks and a mass.  ``present`` (the bag arguments in the
scenario), ``und`` (those labeled undecided), ``ow`` and ``uw`` (those that
have seen an in-labeled, resp. an undecided, attacker) hold one bit per
argument in canonical order; ``atts`` (the present attacks) holds one bit per
attack in sorted order.  The bits are global, so introducing or forgetting an
argument never re-indexes a row.  No label is stored: a present member of S
is in, any other present argument is undecided if it is in ``und`` and out
otherwise.

``p`` is the accumulated mass of all compatible completions below the node,
over the elements already forgotten.  It is a plain int numerator: every row
of a table shares one int denominator.  The answer is the sum of the root
masses over the root denominator, ``Fraction(total, den)``: the one
``Fraction`` a solve builds.  Float mode rounds it once, correctly, at any
size, in ``SolveResult.value`` and in ``query_ext``.  Write each
probability as ``n/d``.  When ``a`` is forgotten, its *charged* attacks are
the uncertain attacks incident to ``a`` (self-attacks included) whose other
endpoint is in the child bag.  A row's mass is multiplied by ``n_a`` if
``a`` is present, else by ``d_a - n_a``, and for each charged attack by
``n_r`` or ``d_r - n_r`` when both endpoints are present, else by ``d_r``;
the table's denominator is the child's times ``d_a`` times each charged
``d_r``.  Each uncertain attack is charged exactly once, at the forget of its
first endpoint, while the other endpoint is still in the bag (the bags
holding an argument are connected).  The children of a join have therefore
forgotten disjoint element sets: a joined row's mass is the product of the
two, and its denominator the product of theirs.  Per-element denominators
rather than one common multiple keep the numbers small when many distinct
primes occur.  The ``--trace`` dump decodes the masks and forgets the bag in
sorted order under the same rule, so its ``p=`` values are the mass of every
element introduced below the node.

Labels are constrained to the labeling that corresponds to the queried set:
members of S are labeled in, everything else out or undecided, and every
neighbor of an in-labeled argument must be out.  This makes the surviving
labeling unique per scenario, so the root row sums each scenario exactly
once.  Rows are only merged at forget nodes; between forgets duplicate
(structure, witness) rows may coexist, which leaves per-node tables bounded
by a function of the bag alone.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from fractions import Fraction

from .core import PAF, exact_text
from .errors import BudgetExceeded, InputError
from .preprocess import query_ext
from .treedecomp import (
    FORGET,
    INTRO,
    JOIN,
    LEAF,
    NiceTreeDecomposition,
    TreeDecomposition,
    decompose,
    make_nice,
)

DP_SEMANTICS = ("adm", "com", "stb")

# the three labels of a bag argument, as the ``--trace`` dump spells them
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
    exact: Fraction
    semantics: str
    mode: str
    width: int
    node_count: int
    node_stats: dict[int, NodeStats]
    trace: list[str] | None = None

    @property
    def value(self) -> Fraction | float:
        """The answer in the result's mode: exact, or the exact answer rounded once."""
        return float(self.exact) if self.mode == "float" else self.exact

    def max_table_rows(self) -> int:
        return max(s.rows for s in self.node_stats.values())


def _converter(mode: str):
    """The map from a mass and its denominator to a ``--trace`` value of the mode."""
    if mode == "float":
        return operator.truediv
    if mode == "rational":
        return Fraction
    raise InputError(f"unknown arithmetic mode {mode!r}")


def p_ext(paf: PAF, sigma: str, S, mode: str = "rational", td=None):
    """Probability that S is a sigma-extension.

    Applies the forced-label preprocessing of ``paftd solve`` (complete
    semantics, no ``td`` given) before the DP; :func:`solve` is the raw DP.
    """
    _converter(mode)  # reject an unknown mode even when preprocessing alone answers

    def engine(instance):
        return solve(instance, sigma, S, mode=mode, td=td).exact

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
    td: TreeDecomposition | None = None,
    heuristic: str = "min-fill",
    order=None,
    trace: bool = False,
    deadline: float | None = None,
) -> SolveResult:
    """Run the DP: the probability that S is a sigma-extension of ``paf``.

    ``td`` may be plain or nice; it is validated against ``paf`` and made
    nice if plain.  ``heuristic`` and ``order`` build the decomposition only
    when ``td`` is None.  ``deadline`` (a ``time.monotonic()`` value) is
    checked between nodes.
    """
    if sigma not in DP_SEMANTICS:
        raise InputError(f"semantics {sigma!r} is not supported by the DP solver")
    S = paf.af.check_subset(S)
    answer = _converter(mode)

    if td is None:
        td = make_nice(decompose(paf.af, heuristic=heuristic, order=order))
    else:
        violations = td.validate(paf.af)
        if violations:
            raise InputError("invalid tree-decomposition: " + "; ".join(violations))
        if not isinstance(td, NiceTreeDecomposition):
            td = make_nice(td)

    ctx = _Context(paf, S, sigma)
    tables: dict[int, tuple] = {}  # node -> (rows, denominator, uncertain bag attacks)
    stats: dict[int, NodeStats] = {}
    trace_lines: list[str] | None = [] if trace else None

    for t in td.post_order():
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded("solver ran out of time")
        kind, kids, bag, a = td.kind[t], td.children[t], td.bags[t], td.arg[t]
        if kind == LEAF:
            rows, den, uncertain = [(0, 0, 0, 0, 0, 1)], 1, 0
        elif kind == INTRO:
            rows, den, uncertain = tables.pop(kids[0])
            rows = _introduce(rows, a, ctx)
            uncertain += len(ctx.charged(a, ctx.mask(bag))[0])
        elif kind == FORGET:
            rows, den, uncertain = tables.pop(kids[0])
            charged, charged_den = ctx.charged(a, ctx.mask(bag) | ctx.bit[a])
            rows, den = _forget(rows, a, charged, ctx), den * charged_den
            uncertain -= len(charged)
        else:
            left, left_den, uncertain = tables.pop(kids[0])
            right, right_den, _ = tables.pop(kids[1])
            rows, den = _join(left, right), left_den * right_den
        tables[t] = rows, den, uncertain
        stats[t] = NodeStats(kind, len(bag), uncertain, len(rows))
        if trace_lines is not None:
            trace_lines.extend(_dump(t, rows, den, bag, ctx, answer))

    rows, den, _ = tables[td.root]
    return SolveResult(
        Fraction(sum(row[5] for row in rows), den),
        sigma,
        mode,
        td.width(),
        td.node_count(),
        stats,
        trace_lines,
    )


def _weights(p: Fraction):
    """The weights of ``p = n/d``: present, absent, and charged without both
    endpoints present."""
    return p.numerator, p.denominator - p.numerator, p.denominator


class _Context:
    """Per-solve constants: the int weights ``(n, d - n, d)`` of each
    probability ``n/d``, one bit per argument (canonical order) and one per
    attack (sorted order)."""

    def __init__(self, paf: PAF, S, sigma):
        self.sigma = sigma
        self.bit = {a: 1 << i for i, a in enumerate(paf.af.arguments)}
        self.s_mask = self.mask(S)
        self.warg = {a: _weights(p) for a, p in paf.arg_prob.items()}
        self.arg_certain = {a: paf.arg_certain(a) for a in paf.af.arguments}
        self.attacks = sorted(paf.af.attacks)
        # per argument, its attacks in sorted order as (attack bit, endpoint
        # mask, source bit, target bit, weights or None when certain)
        self.incident: dict[str, list] = {a: [] for a in paf.af.arguments}
        for i, (x, y) in enumerate(self.attacks):
            w = None if paf.att_certain((x, y)) else _weights(paf.att_prob[x, y])
            entry = (1 << i, self.bit[x] | self.bit[y], self.bit[x], self.bit[y], w)
            for a in {x, y}:
                self.incident[a].append(entry)
        self.incident_mask = {a: sum(r[0] for r in rs) for a, rs in self.incident.items()}

    def mask(self, args) -> int:
        return sum(self.bit[a] for a in args)

    def charged(self, a: str, bag_mask: int):
        """The uncertain attacks charged where ``a`` leaves a bag, those
        between ``a`` and a member of ``bag_mask`` (which holds ``a``), and
        the denominator that forget multiplies into the table's."""
        charged = [r for r in self.incident[a] if r[4] is not None and not r[1] & ~bag_mask]
        den = self.warg[a][2]
        for r in charged:
            den = den * r[4][2]
        return charged, den

    def factor(self, a: str, present: int, atts: int, charged):
        """Numerator of ``a``'s factor in a row's structure: its presence or
        absence, and each charged attack's presence or absence if both its
        endpoints are present, else that attack's denominator."""
        w_present, w_absent, _ = self.warg[a]
        factor = w_present if present & self.bit[a] else w_absent
        for r_bit, ends, _, _, (w_present, w_absent, d) in charged:
            factor = factor * (d if ends & ~present else w_present if atts & r_bit else w_absent)
        return factor


def _introduce(rows, a, ctx: _Context):
    out = []
    bit = ctx.bit[a]
    in_s = ctx.s_mask & bit
    # every other bag member of S is present already: only ``a`` can be an
    # absent member of S, and that row is not emitted
    keep_absent = not (ctx.arg_certain[a] or in_s)
    und_choices = (0,) if in_s or ctx.sigma == "stb" else (0, bit)
    for row in rows:
        present, atts, und, ow, uw, p = row
        if keep_absent:
            out.append(row)
        present |= bit
        ins = present & ctx.s_mask
        incident = [r for r in ctx.incident[a] if not r[1] & ~present]
        forced = [r for r in incident if r[4] is None]
        optional = [r for r in incident if r[4] is not None]

        for rmask in range(1 << len(optional)):
            chosen = forced + [r for i, r in enumerate(optional) if rmask >> i & 1]
            new_atts = atts
            for r in chosen:
                new_atts |= r[0]
            for und_a in und_choices:
                new_und = und | und_a
                live = ins | new_und  # the arguments not labeled out
                # conflict discipline: every neighbor of an in-label is out
                if any(ends & ins and not ends & ~live for _, ends, _, _, _ in chosen):
                    continue
                new_ow, new_uw = ow, uw
                for _, _, x, y, _ in chosen:
                    if x & ins:
                        new_ow |= y
                    elif x & new_und:
                        new_uw |= y
                out.append((present, new_atts, new_und, new_ow, new_uw, p))
    return out


def _forget(rows, a, charged, ctx: _Context):
    merged: dict[tuple, object] = {}
    factors: dict[tuple, object] = {}
    bit = ctx.bit[a]
    keep, keep_atts = ~bit, ~ctx.incident_mask[a]
    needs_witness = not ctx.s_mask & bit  # an in-label needs none
    com = ctx.sigma == "com"
    for present, atts, und, ow, uw, p in rows:
        if needs_witness and present & bit:
            if und & bit:
                if com and not uw & bit:
                    continue
            elif not ow & bit:
                continue
        factor = factors.get((present, atts))
        if factor is None:
            factor = factors[present, atts] = ctx.factor(a, present, atts, charged)
        p = p * factor
        key = (present & keep, atts & keep_atts, und & keep, ow & keep, uw & keep)
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
    for present, atts, und, ow1, uw1, p1 in left:
        for _, _, _, ow2, uw2, p2 in by_structure.get((present, atts, und), ()):
            out.append((present, atts, und, ow1 | ow2, uw1 | uw2, p1 * p2))
    return out


def _format_value(value) -> str:
    return repr(value) if isinstance(value, float) else exact_text(value)


def _dump(node_id: int, rows, den, bag, ctx: _Context, answer) -> list[str]:
    order = sorted(bag)

    def names(mask):
        return [x for x in order if mask & ctx.bit[x]]

    # render the mass of the whole subtree: forget the bag in sorted order
    steps, bag_mask = [], ctx.mask(bag)
    for a in order:
        charged, charged_den = ctx.charged(a, bag_mask)
        steps.append((a, ctx.bit[a], charged))
        den = den * charged_den
        bag_mask &= ~ctx.bit[a]

    decoded = []
    for present, atts, und, ow, uw, p in rows:
        args = names(present)
        # bit i of ``atts`` is the i-th attack in sorted order
        att_list = [ctx.attacks[i] for i, c in enumerate(reversed(bin(atts))) if c == "1"]
        labels = [IN if ctx.bit[x] & ctx.s_mask else UND if ctx.bit[x] & und else OUT for x in args]
        # the labels sort as (argument, label) pairs: out before undecided
        key = (args, att_list, tuple(zip(args, labels)), names(ow), names(uw))
        decoded.append((key, present, atts, p))
    lines = []
    for (args, att_list, lab, ow, uw), present, atts, p in sorted(decoded, key=lambda d: d[0]):
        for a, bit, charged in steps:
            p = p * ctx.factor(a, present, atts, charged)
            present &= ~bit
        ins, outs, unds = (",".join(x for x, l in lab if l == want) for want in (IN, OUT, UND))
        attstr = ",".join(f"{x}>{y}" for x, y in att_list)
        lines.append(
            f"node={node_id} F=({','.join(args)};{attstr}) L=({ins};{outs};{unds}) "
            f"lw=({','.join(ow)};{','.join(uw)}) p={_format_value(answer(p, den))}"
        )
    return lines
