"""Dynamic programming over nice tree-decompositions for P-Ext.

Tables are computed bottom-up.  A row is a state ``(present, und, w)`` of
three int bitmasks with a mass ``p``; a table groups its rows by structure,
``{(present, und): {w: p}}``, and stores no empty group.  ``present``
(the bag arguments in the scenario), ``und`` (those labeled undecided) and
``w`` (the witnessed ones) hold one bit per argument, its slot: walking the
tree top-down, an argument takes at its forget the least slot its bag's
other members leave free, and keeps it in every bag below.  So introducing
or forgetting an argument never re-indexes a row, and width + 1 slots
suffice: the bags holding an argument form a subtree, and subtrees of a
tree intersect as a chordal graph whose largest clique is the largest bag
(Gavril, *J. Comb. Theory B* 16, 1974).  No label is
stored: a present member of S is in, any other present argument is
undecided if it is in ``und`` and out otherwise.  A bit of ``w`` means an
in-labeled attacker of an out argument, or an undecided attacker of an
undecided argument under com; no check reads any other, so none is set.

Each attack is decided and charged at the forget of its first endpoint,
while the other endpoint is still in the bag (the bags holding an argument
are connected), where an "introduce edge" node would sit (Cygan et al.,
*Parameterized Algorithms*, Springer 2015, §7.3).  There an attack with an
absent endpoint is absent, a certain one present, an uncertain one either;
a present attack sets its target's witness bit, and a certain attack that
makes a row conflicting removes the row.  A forget decides each pattern of
``a`` and its decided neighbours once, and sums the decisions that set the
same witness bits.  An introduce only adds ``a`` absent or present with its
label; a join pairs the groups of one structure.

``p`` is the mass of all compatible completions below the node, over the
elements already forgotten: an int numerator over its table's one int
denominator.  The answer is ``Fraction(total, den)`` at the root, the one
``Fraction`` a solve builds; float mode rounds it once, correctly, at any
size.  Write each probability as ``n/d``.  Forgetting ``a`` multiplies a
row's mass by ``n_a`` if ``a`` is present, else by ``d_a - n_a``, and for
each uncertain attack it decides by ``n_r`` or ``d_r - n_r`` when both
endpoints are present, else by ``d_r``; the table's denominator is the
child's times ``d_a`` and each such ``d_r``.  The children of a join have
therefore forgotten disjoint element sets: a matched pair of rows adds the
product of its masses, and the join's denominator is the product of theirs.
Per-element denominators rather than one common multiple keep the numbers
small when many distinct primes occur.  The ``--trace`` dump forgets the
bag in sorted order under the same rule: a row becomes one line per
decision of the attacks between bag members, its ``p=`` the mass of every
element below, its ``lw=`` the out and then the undecided witnessed ones.
Lines sort by their fields, and ties by descending mass.

Labels are constrained to the labeling that corresponds to the queried set:
members of S are labeled in, everything else out or undecided, and every
neighbor of an in-labeled argument must be out.  This makes the surviving
labeling unique per scenario, so the root row sums each scenario exactly
once.  Every step keeps one row per state: an introduce makes distinct
states, and a forget or a join adds the masses that meet on one state.  A
bag argument outside S is absent, out with ``w`` 0 or 1, or undecided with
``w`` 0 or 1 under com, 0 under adm and never under stb.  A member of S is
present with no witness bit: an attack onto it from an in-labeled or
undecided argument is a conflict, and one from an out argument sets none.
So a table has at most the product over its bag of 1 (a member of S) or
5, 4, 3 (com, adm, stb) rows, within the loose ``9**len(bag)``.

No query needs this DP outside ``--trace``.  Whether S is an extension of a
scenario depends, for each argument ``b`` outside S, on ``b``'s presence and
the attacks between ``b`` and S, and these element sets are disjoint
(Fazzinga, Flesca & Parisi, ACM TOCL 2015); under com also on the choice of
the undecided set U.  A present ``b`` is out iff S attacks it, must not
attack S unless out, and if undecided needs an undecided attacker
(Caminada, JELIA 2006).  Write ``q(X)`` for the product of ``1 - p`` over
the attacks in X, and S→S for the attacks among S, self-attacks included;
one pass over the attacks (:func:`_factors`) gives

    C   = prod_{s in S} P(s) * q(S→S)
    n_b = 1 - P(b) + P(b) * (1 - q(S→b))     (b absent, or present and out)
    u_b = P(b) * q(S→b) * q(b→S)             (b present, undecided, no attack on S)

and then P-Ext is C * prod_b (n_b + u_b) under adm, C * prod_b n_b under stb
(:func:`closed_form`), and under com

    C * sum_{U ⊆ A∖S} prod_{b not in U} n_b * prod_{b in U} u_b * (1 - prod_{c in U, c→b} (1 - p_cb)).

:func:`three_state` computes that sum.  First it peels every ``b`` with
``u_b = 0``, then, repeatedly, every ``b`` left without an attacker among
those left (a self-attack counts): such a ``b`` contributes ``n_b`` alone,
as its undecided terms below are 0 or cancel.  On the live arguments left,
each ``1 - prod`` splits into two signed terms, so a live ``b`` is in state
N (weight ``n_b``), T (``u_b``) or Q (``-u_b * (1 - p_bb)``, with ``p_bb``
0 unless ``b`` attacks itself), and an attack ``c→b`` between distinct live
arguments contributes ``1 - p_cb`` when ``b`` is Q and ``c`` is T or Q,
else 1.  The DP runs on the nice decomposition :func:`solve` would use,
with bag-local slots for the live arguments only: an introduce or forget
of a peeled argument passes its table on.  A row is one int
``u | q << shift``, U's bits and Q's (``q ⊆ u``) with ``shift`` past every
slot, and its int mass may be negative; no witness bit is needed, so a bag
of k live arguments has at most ``3**k`` rows.  An introduce adds only the
states whose weight is nonzero (N is 0 when ``n_b`` is, Q under a certain
self-attack), and none of the rows that a certain attack between bag mates
gives the factor 0.  A forget charges the argument's weight and its
attacks to the bag as above, with per-element denominators.

:func:`p_ext` and ``paftd solve`` answer adm and stb by the closed form and
com by :func:`three_state`, ``paftd solve`` on the instance its forced-label
preprocessing leaves: the peel drops every argument that it would remove.
:func:`solve`, and so ``paftd solve --trace``, stays the DP for all three
semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .core import PAF, exact_text
from .errors import BudgetExceeded, InputError
from .treedecomp import (
    FORGET,
    INTRO,
    JOIN,
    NiceTreeDecomposition,
    TreeDecomposition,
    decompose,
    make_nice,
)

DP_SEMANTICS = ("adm", "com", "stb")
CLOSED_FORM_SEMANTICS = ("adm", "stb")

# the three labels of a bag argument, as the ``--trace`` dump spells them
IN = "I"
OUT = "O"
UND = "U"


@dataclass(frozen=True)
class NodeStats:
    kind: str
    bag_size: int
    rows: int


@dataclass
class SolveResult:
    exact: Fraction
    value: Fraction | float  # the answer in the solve's mode
    width: int
    node_count: int
    node_stats: dict[int, NodeStats]
    trace: list[str] | None = None

    def max_table_rows(self) -> int:
        return max(s.rows for s in self.node_stats.values())


def rounded(exact: Fraction, mode: str) -> Fraction | float:
    """The exact answer in ``mode``: itself, or in float mode rounded once."""
    if mode == "float":
        return float(exact)
    if mode != "rational":
        raise InputError(f"unknown arithmetic mode {mode!r}")
    return exact


def answer_text(value: Fraction | float) -> str:
    """An answer as ``paftd`` prints it: ``repr`` of a float, else exact."""
    return repr(value) if isinstance(value, float) else exact_text(value)


def p_ext(paf: PAF, sigma: str, S, mode: str = "rational"):
    """Probability that S is a sigma-extension: exact, or in float ``mode``
    the exact answer rounded once.

    Answers adm and stb by :func:`closed_form`, and com by
    :func:`three_state` on ``paf`` as given; :func:`solve` is the paper's
    DP.
    """
    if sigma in CLOSED_FORM_SEMANTICS:
        return rounded(closed_form(paf, sigma, S), mode)
    if sigma != "com":
        raise InputError(f"semantics {sigma!r} is not supported by the DP solver")
    return rounded(three_state(paf, S)[0], mode)


def _factors(paf: PAF, S):
    """The module docstring's factors, in one pass over the attacks: C as
    ``(num, den)``, and per argument b outside S the int numerators of n_b
    and u_b over one denominator, as ``{b: (n, u, den)}``."""
    num = den = 1
    onto: dict[str, list[int]] = {}  # b outside S -> [n, d] of q(S→b)
    back: dict[str, list[int]] = {}  # b outside S -> [n, d] of q(b→S)
    for (x, y), p in paf.att_prob.items():
        n, d = p.numerator, p.denominator
        if x in S:
            if y in S:
                num, den = num * (d - n), den * d
                continue
            q = onto.setdefault(y, [1, 1])
        elif y in S:
            q = back.setdefault(x, [1, 1])
        else:
            continue
        q[0] *= d - n
        q[1] *= d
    factors = {}
    for a, p in paf.arg_prob.items():
        n, d = p.numerator, p.denominator
        if a in S:
            num, den = num * n, den * d
            continue
        s_n, s_d = onto.get(a, (1, 1))
        b_n, b_d = back.get(a, (1, 1))
        factors[a] = (((d - n) * s_d + n * (s_d - s_n)) * b_d, n * s_n * b_n, d * s_d * b_d)
    return num, den, factors


def closed_form(paf: PAF, sigma: str, S) -> Fraction:
    """The exact probability that S is an adm or stb extension, as the
    product of the module docstring."""
    if sigma not in CLOSED_FORM_SEMANTICS:
        raise InputError(f"semantics {sigma!r} has no closed form")
    num, den, factors = _factors(paf, paf.af.check_subset(S))
    adm = sigma == "adm"
    for n, u, d in factors.values():
        num, den = num * (n + u if adm else n), den * d
    return Fraction(num, den)


def three_state(paf: PAF, S, td: TreeDecomposition | None = None, deadline: float | None = None):
    """The exact probability that S is a complete extension of ``paf``, by
    the module docstring's three-state sum, and the nice decomposition it
    ran on: ``td`` as :func:`solve` takes it.  ``deadline`` (a
    ``time.monotonic()`` value) is checked between nodes."""
    S = paf.af.check_subset(S)
    td = fixed_td(paf, td)
    _check(deadline)  # also when the peel leaves no DP to run
    num, den, factors = _factors(paf, S)
    live = _peel(paf, factors) if num else set()
    for a, (n, _, d) in factors.items():
        if a not in live:
            num, den = num * n, den * d
    if num and live:
        total, table_den = _signed_sum(paf, live, factors, td, deadline)
        num, den = num * total, den * table_den
    return Fraction(num, den), td


def _check(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded("solver ran out of time")


def _peel(paf: PAF, factors) -> set[str]:
    """The arguments outside S with u_b > 0, less, repeatedly, every one
    left without an attacker among those left (a self-attack counts)."""
    af = paf.af
    live = {a for a, (_, u, _) in factors.items() if u}
    attackers = {a: len(af.attackers(a) & live) for a in live}
    work = [a for a, k in attackers.items() if not k]
    while work:
        a = work.pop()
        live.discard(a)
        for b in af.targets(a) & live:
            attackers[b] -= 1
            if not attackers[b]:
                work.append(b)
    return live


def _signed_sum(paf: PAF, live, factors, td: NiceTreeDecomposition, deadline):
    """The sum over the live arguments' N/T/Q states, as an int numerator
    over one int denominator."""
    order = td.post_order()
    bit = _slots(td, order, live)
    shift = max(bit.values()).bit_length()  # a row is u | q << shift
    weights = {}  # a -> (N, T, Q) numerators and their denominator
    states = {}  # a -> the row offsets of its states whose numerator is nonzero
    # a -> its attacks as (other endpoint, (source's U bit, target's Q bit, n and d of 1 - p))
    edges: dict[str, list] = {a: [] for a in live}
    # a -> its certain attacks as (other endpoint, source's U bit, target's Q bit)
    certain: dict[str, list] = {}
    for a in live:
        n, u, d = factors[a]
        p = paf.att_prob.get((a, a), 0)
        p_n, p_d = p.numerator, p.denominator
        weights[a] = w = (n * p_d, u * p_d, -u * (p_d - p_n), d * p_d)
        offsets = (0, bit[a], bit[a] | bit[a] << shift)
        # T is never 0 (u_b > 0 for a live argument); N and Q can be
        states[a] = offsets if w[0] and w[2] else tuple(o for o, w_s in zip(offsets, w) if w_s)
    for (x, y), p in paf.att_prob.items():
        if x != y and x in live and y in live:
            entry = (bit[x], bit[y] << shift, p.denominator - p.numerator, p.denominator)
            edges[x].append((y, entry))
            edges[y].append((x, entry))
            if p == 1:
                certain.setdefault(x, []).append((y, *entry[:2]))
                certain.setdefault(y, []).append((x, *entry[:2]))

    tables: dict[int, tuple] = {}  # node -> (rows, denominator)
    for t in order:
        _check(deadline)
        kind, kids, a = td.kind[t], td.children[t], td.arg[t]
        rows, den = tables.pop(kids[0]) if kids else ({0: 1}, 1)
        if kind == JOIN:
            right, right_den = tables.pop(kids[1])
            rows, den = {s: p * right[s] for s, p in rows.items() if s in right}, den * right_den
        elif a in bit and kind == INTRO:
            offsets = states[a]
            mates = a in certain and [(src, dst_q) for b, src, dst_q in certain[a] if b in td.bags[t]]
            if mates:
                # a certain attack between a and a bag mate gives the rows
                # with its source in T or Q and its target in Q the factor 0
                kills = [(o, _kill(o, mates)) for o in offsets]
                rows = {s | o: p for s, p in rows.items() for o, kill in kills if not s & kill}
            else:
                rows = {s | o: p for s, p in rows.items() for o in offsets}
        elif a in bit and kind == FORGET:
            child_bag = td.bags[kids[0]]
            decided = [entry for b, entry in edges[a] if b in child_bag]
            rows = _forget_states(rows, bit[a], bit[a] << shift, weights[a], decided)
            den *= prod((entry[3] for entry in decided), start=weights[a][3])
        tables[t] = rows, den
    rows, den = tables[td.root]
    return rows.get(0, 0), den


def _kill(offset: int, mates) -> int:
    """The bits of a row that kill it with the introduced argument in the
    state ``offset``: per certain attack ``(source's U bit, target's Q bit)``
    in ``mates``, the other endpoint's bit if ``offset`` holds its own."""
    kill = 0
    for source, target_q in mates:
        if offset & source:
            kill |= target_q
        if offset & target_q:
            kill |= source
    return kill


def _forget_states(rows, u_bit, q_bit, weights, decided):
    """Forget the argument with bits ``u_bit`` and ``q_bit``: charge its
    state's weight and each ``decided`` attack to every row, and add the
    rows that meet.  The factor reads only the bits of the argument and its
    decided neighbours, so it is computed once per pattern of those."""
    w_n, w_t, w_q, _ = weights
    local = u_bit | q_bit
    for source, target_q, _, _ in decided:
        local |= source | target_q
    out: dict[int, int] = {}
    factors: dict[int, int] = {}
    keep = ~(u_bit | q_bit)
    for s, p in rows.items():
        pattern = s & local
        f = factors.get(pattern)
        if f is None:
            f = w_q if s & q_bit else w_t if s & u_bit else w_n
            for source, target_q, keep_n, d in decided:
                f *= keep_n if s & target_q and s & source else d
            factors[pattern] = f
        if f:
            key = s & keep
            out[key] = out.get(key, 0) + p * f
    return out


def fixed_td(paf: PAF, td: TreeDecomposition | None) -> NiceTreeDecomposition:
    """``td`` validated against ``paf`` (an invalid one is an ``InputError``)
    and in nice form; with ``td`` None, ``make_nice(decompose(paf.af))``."""
    if td is None:
        return make_nice(decompose(paf.af))
    violations = td.validate(paf.af)
    if violations:
        raise InputError("invalid tree-decomposition: " + "; ".join(violations))
    return td if isinstance(td, NiceTreeDecomposition) else make_nice(td)


def solve(
    paf: PAF,
    sigma: str,
    S,
    mode: str = "rational",
    td: TreeDecomposition | None = None,
    trace: bool = False,
    deadline: float | None = None,
) -> SolveResult:
    """Run the DP: the probability that S is a sigma-extension of ``paf``.

    With ``td`` None the DP runs on ``make_nice(decompose(paf.af))``.  Any
    other decomposition is passed as ``td=decompose(paf.af, heuristic=...)``
    or ``td=decompose(paf.af, order=...)``, or read by ``parse_td``; it may be
    plain or nice, and is validated against ``paf`` and made nice if plain.
    With ``trace`` the result's ``trace`` holds the per-node table dump.
    ``deadline`` (a ``time.monotonic()`` value) is checked between nodes.
    """
    if sigma not in DP_SEMANTICS:
        raise InputError(f"semantics {sigma!r} is not supported by the DP solver")
    S = paf.af.check_subset(S)
    rounded(0, mode)  # rejects an unknown mode before the DP runs

    td = fixed_td(paf, td)
    order = td.post_order()

    ctx = _Context(paf, S, sigma, td, order)
    tables: dict[int, tuple] = {}  # node -> (rows, denominator)
    stats: dict[int, NodeStats] = {}
    trace_lines: list[str] | None = [] if trace else None

    for t in order:
        _check(deadline)
        kind, kids, bag, a = td.kind[t], td.children[t], td.bags[t], td.arg[t]
        # a leaf starts from the one empty row, any other node from its first child
        rows, den = tables.pop(kids[0]) if kids else ({(0, 0): {0: 1}}, 1)
        if kind == INTRO:
            rows = _introduce(rows, a, ctx)
        elif kind == FORGET:
            child_bag = td.bags[kids[0]]  # bag | {a}
            decided, decided_den = ctx.decided(a, child_bag)
            rows, den = _forget(rows, a, decided, ctx.mask(child_bag & S), ctx), den * decided_den
        elif kind == JOIN:
            right, right_den = tables.pop(kids[1])
            rows, den = _join(rows, right), den * right_den
        tables[t] = rows, den
        stats[t] = NodeStats(kind, len(bag), sum(map(len, rows.values())))
        if trace_lines is not None:
            trace_lines.extend(_dump(t, rows, den, bag, ctx, mode))

    rows, den = tables[td.root]
    exact = Fraction(sum(rows.get((0, 0), {}).values()), den)  # the root's bag is empty
    return SolveResult(exact, rounded(exact, mode), td.width(), td.node_count(), stats, trace_lines)


def _weights(p: Fraction):
    """The weights of ``p = n/d``: present, absent, and left undecided."""
    return p.numerator, p.denominator - p.numerator, p.denominator


class _Context:
    """Per-solve constants: the int weights ``(n, d - n, d)`` of each
    probability ``n/d`` and one bit per argument (its slot:
    :func:`_slots`).  A certain element's weights are ``(1, 0, 1)``."""

    def __init__(self, paf: PAF, S, sigma, td: NiceTreeDecomposition, order):
        self.S = S
        self.sigma = sigma
        self.warg = {a: _weights(p) for a, p in paf.arg_prob.items()}
        self.bit = _slots(td, order, self.warg)
        # per argument, its attacks in sorted order as (other endpoint,
        # (attack, endpoint mask, source bit, target bit, weights))
        self.incident: dict[str, list] = {a: [] for a in paf.af.arguments}
        for x, y in sorted(paf.af.attacks):
            bx, by = self.bit[x], self.bit[y]
            entry = ((x, y), bx | by, bx, by, _weights(paf.att_prob[x, y]))
            for a, b in {(x, y), (y, x)}:
                self.incident[a].append((b, entry))

    def mask(self, args) -> int:
        return sum(self.bit[a] for a in args)

    def decided(self, a: str, bag):
        """The attacks decided where ``a`` leaves a bag, those between ``a``
        and ``bag`` (which holds ``a``), and the denominator that forget
        multiplies into the table's.  Arguments that share no bag may share
        a slot, so the test is by name."""
        decided = [r for b, r in self.incident[a] if b in bag]
        return decided, prod((r[4][2] for r in decided), start=self.warg[a][2])

    def choices(self, a: str, present: int, und: int, ins: int, decided):
        """The conflict-free decisions of the ``decided`` attacks in a row's
        structure, as ``(attacks, w, factor)``: the present attacks, the
        witness bits they set, and the numerator of ``a``'s presence or
        absence times each attack's, or its denominator when an endpoint is
        absent.  ``ins`` is the mask of the bag's members of S, all present
        in every row.  An attack's absent choice comes first."""
        w_present, w_absent, _ = self.warg[a]
        live = ins | und  # the arguments not labeled out
        com = self.sigma == "com"
        out = [((), 0, w_present if present & self.bit[a] else w_absent)]
        for attack, ends, x, y, (w_present, w_absent, d) in decided:
            if ends & ~present:
                out = [(atts, w, f * d) for atts, w, f in out]
                continue
            absent = [(atts, w, f * w_absent) for atts, w, f in out if w_absent]
            # conflict discipline: every neighbor of an in-label is out
            if ends & ins and not ends & ~live:
                out = absent
                continue
            w_bit = y if x & ins or com and x & und and y & und else 0
            out = absent + [(atts + (attack,), w | w_bit, f * w_present) for atts, w, f in out]
        return out


def _slots(td: NiceTreeDecomposition, order, args) -> dict[str, int]:
    """One bit per argument of ``args``, its slot: walking ``td``'s
    post-order ``order`` backwards (parents first), an argument takes at its
    forget node the least slot its bag mates in ``args`` leave free."""
    slot: dict[str, int] = {}
    for t in reversed(order):
        a = td.arg[t]
        if td.kind[t] == FORGET and a in args:
            taken = {slot[b] for b in td.bags[t] if b in slot}
            slot[a] = min(set(range(len(taken) + 1)) - taken)
    return {a: 1 << i for a, i in slot.items()}


def _introduce(rows, a, ctx: _Context):
    out = {}
    bit = ctx.bit[a]
    in_s = a in ctx.S
    # every other bag member of S is present already: only ``a`` can be an
    # absent member of S, and that row is not emitted; nor is a certain ``a``
    keep_absent = ctx.warg[a][1] and not in_s
    und_choices = (0,) if in_s or ctx.sigma == "stb" else (0, bit)
    # no step mutates a table it was given, so the new groups share the child's
    for (present, und), group in rows.items():
        if keep_absent:
            out[present, und] = group
        for und_a in und_choices:
            out[present | bit, und | und_a] = group
    return out


def _forget(rows, a, decided, ins, ctx: _Context):
    merged: dict[tuple, dict] = {}
    bit = ctx.bit[a]
    keep = ~bit
    outside_s = a not in ctx.S  # an in-label needs no witness
    # decisions read only ``local``, the bits of ``a`` and its decided
    # neighbours: per pattern of those, the summed factor of each witness set
    local = bit
    for r in decided:
        local |= r[1]
    folded: dict[tuple, dict] = {}
    for (present, und), group in rows.items():
        needs = outside_s and present & bit and (ctx.sigma == "com" or not und & bit)
        target = merged.setdefault((present & keep, und & keep), {})
        pattern = present & local, und & local
        options = folded.get(pattern)
        if options is None:
            options = folded[pattern] = {}
            for _, w_bits, factor in ctx.choices(a, *pattern, ins, decided):
                options[w_bits] = options.get(w_bits, 0) + factor
        for w_bits, factor in options.items():
            for w, p in group.items():
                new_w = w | w_bits
                if needs and not new_w & bit:
                    continue
                new_w &= keep
                target[new_w] = target.get(new_w, 0) + p * factor
    return {structure: group for structure, group in merged.items() if group}


def _join(left, right):
    merged: dict[tuple, dict] = {}
    for structure in left.keys() & right.keys():
        target = merged[structure] = {}
        for w1, p1 in left[structure].items():
            for w2, p2 in right[structure].items():
                target[w1 | w2] = target.get(w1 | w2, 0) + p1 * p2
    return merged


def _dump(node_id: int, rows, den, bag, ctx: _Context, mode: str) -> list[str]:
    order = sorted(bag)

    def names(mask):
        return [x for x in order if mask & ctx.bit[x]]

    # render the mass of the whole subtree: forget the bag in sorted order,
    # deciding its attacks as the forgets above the node would
    steps, left = [], set(bag)
    for a in order:
        decided, decided_den = ctx.decided(a, left)
        steps.append((a, decided))
        den = den * decided_den
        left.discard(a)

    ins = ctx.mask(bag & ctx.S)
    decoded = []
    for (present, und), group in rows.items():
        expanded = [((), 0, 1)]
        for a, decided in steps:
            options = ctx.choices(a, present, und, ins, decided)
            expanded = [
                (atts + more, w | w_bits, f * factor)
                for atts, w, f in expanded
                for more, w_bits, factor in options
            ]
        args = names(present)
        # the labels sort as (argument, label) pairs: out before undecided
        lab = tuple((x, IN if x in ctx.S else UND if ctx.bit[x] & und else OUT) for x in args)
        for atts, w_bits, factor in expanded:
            att_list = sorted(atts)
            for w, p in group.items():
                w |= w_bits
                decoded.append(((args, att_list, lab, names(w & ~und), names(w & und)), p * factor))
    lines = []
    for (args, att_list, lab, w_out, w_und), p in sorted(decoded, key=lambda d: (d[0], -d[1])):
        ins, outs, unds = (",".join(x for x, l in lab if l == want) for want in (IN, OUT, UND))
        attstr = ",".join(f"{x}>{y}" for x, y in att_list)
        lines.append(
            f"node={node_id} F=({','.join(args)};{attstr}) L=({ins};{outs};{unds}) "
            f"lw=({','.join(w_out)};{','.join(w_und)}) p={answer_text(rounded(Fraction(p, den), mode))}"
        )
    return lines
