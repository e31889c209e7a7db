"""Brute-force enumeration over all certain-respecting subframeworks.

This module is the ground truth the tree-decomposition solver is checked
against: it materializes every scenario of a PAF, evaluates the queried
semantics directly on it, and sums probabilities (or counts scenarios).
Probabilities are exact ints over one denominator, the product of the
denominators of the uncertain elements, and an answer is divided once.
Scenarios are walked in blocks.  For each choice of the uncertain
arguments, and of the uncertain attacks between present arguments past the
first ``_BLOCK``, one view walks every choice of those first ``_BLOCK``
attacks in reflected Gray order, each step toggling one attack in place
and moving the weight by one exact division and one product.  So a walk
holds one view and one weight.
A query enumerates only the scenarios in which its arguments (the set S, or
the argument of an acceptance query) are present: S is no extension, and no
extension holds the argument, of a scenario that lacks one of them.
Credulous acceptance under adm, com and stb is one search that grows a
conflict-free set from the argument until it is admissible or stable.
The grounded extension grows from the empty set: each round adds the
arguments, neither in it nor attacked by it, whose attackers it all
attacks.  A set grown so is part of the grounded extension, so it is
conflict-free and an argument it attacks never joins.  A grounded query
stops once it is decided: an acceptance query when the argument joins
(yes) or is attacked (no), an extension query when a round adds an
argument outside S or attacks one in S (no).
A P-Acc query under adm, com and grd walks only the sub-PAF of the
argument's ancestors: the argument and every argument with a directed
attack path to it.  These semantics are directional (Baroni & Giacomin,
AIJ 171, 2007): nothing outside the ancestors attacks them, so whether the
argument is accepted in a scenario depends on that scenario's part within
them alone, and the choices outside sum to 1.  Stable semantics is not
directional (a certain odd cycle anywhere leaves no stable extension), and
a count is no product (how many ways the rest completes depends on which
ancestors are present), so under stb and for counts the whole instance is
walked.
Runtime is exponential in the number of uncertain elements, so a capacity
cap guards every entry point; it counts the whole instance.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import partial
from math import prod
from typing import Iterator

from .core import PAF, Subframework
from .errors import BudgetExceeded, CapacityError, InputError

DEFAULT_UNCERTAINTY_CAP = 30

ORACLE_SEMANTICS = ("adm", "com", "stb", "grd")

# the semantics under which acceptance reads only the argument's ancestors
_DIRECTIONAL = ("adm", "com", "grd")

_DEADLINE_STRIDE = 256

# the attacks per argument choice that one view walks in Gray order, with
# one weight moved along the walk
_BLOCK = 10

# _STEPS[r - 1] is 2j for Gray step r, which toggles low attack j = ctz(r),
# when the attack turns present (bit j + 1 of r clear), else 2j + 1
_STEPS = [2 * j + (r >> j + 1 & 1) for r in range(1, 1 << _BLOCK)
          for j in [(r & -r).bit_length() - 1]]

# _RUNS[k]: the runs of a block of k low attacks, each (first scenario r,
# the steps after it) and at most _DEADLINE_STRIDE scenarios long
_RUNS = [[(r, _STEPS[r:min(r + _DEADLINE_STRIDE, 1 << k) - 1])
          for r in range(0, 1 << k, _DEADLINE_STRIDE)] for k in range(_BLOCK + 1)]


def _check_capacity(paf: PAF, cap: int) -> None:
    n = paf.uncertainty_count()
    if n > cap:
        raise CapacityError(f"{n} uncertain elements exceed the enumeration cap of {cap}")


def _denominator(paf: PAF) -> int:
    """The product of the uncertain elements' denominators (a certain one's is 1)."""
    return prod(p.denominator for p in (*paf.arg_prob.values(), *paf.att_prob.values()))


def _blocks(paf: PAF, deadline, required: int):
    """Yield (view, weight, flips, steps) for every run of scenarios in the
    order of ``_iter_scenarios``, which walks them.

    The view holds the run's first scenario and the weight is its weight.
    Each later scenario of the run is one Gray step: ``flips[s]`` for ``s``
    in ``steps`` is ``(yi, xbit, xi, ybit, div, mul)``, which toggles the
    attack from argument ``xi`` to argument ``yi`` in the view and sets
    ``weight = weight // div * mul``.  The division is exact: ``div`` is the
    factor the attack put into the weight before the step.  A block has at
    most ``2**_BLOCK`` scenarios, and one of more than ``_DEADLINE_STRIDE``
    comes in runs of that many, so the deadline is checked at least every
    ``_DEADLINE_STRIDE`` scenarios.  The view is walked in place: walk a
    run's steps before drawing the next run.
    """
    args = paf.af.arguments
    probs = [paf.arg_prob[a] for a in args]
    certain = required | sum(1 << i for i, p in enumerate(probs) if p == 1)
    w_required = prod(p.numerator for i, p in enumerate(probs) if required >> i & 1)
    u_args = [(1 << i, p.numerator, p.denominator - p.numerator)
              for i, p in enumerate(probs) if not certain >> i & 1]
    index = {a: i for i, a in enumerate(args)}
    # per attack from xi to yi of probability n/d: its endpoint bits, d, d - n
    # (0 if certain) and its flips to present and to absent, built once
    atts = []
    for x, y in sorted(paf.af.attacks):
        xi, yi, p = index[x], index[y], paf.att_prob[x, y]
        n, d = p.numerator, p.denominator
        flip = (yi, 1 << xi, xi, 1 << yi)
        atts.append((xi, yi, 1 << xi | 1 << yi, d, d - n, ((*flip, d - n, n), (*flip, n, d - n))))
    ticks = 0
    for amask in range(1 << len(u_args)):
        present, w_args = certain, w_required
        for i, (bit, n, m) in enumerate(u_args):
            if amask >> i & 1:
                present |= bit
                w_args *= n
            else:
                w_args *= m
        att_of, tgt_of, flips, high = [0] * len(args), [0] * len(args), [], []
        for xi, yi, ends, d, m, pair in atts:
            if present & ends != ends:
                w_args *= d
            elif not m:
                att_of[yi] |= 1 << xi
                tgt_of[xi] |= 1 << yi
            elif len(flips) < 2 * _BLOCK:
                flips += pair  # a low attack starts absent
                w_args *= m
            else:
                high.append(pair[1])  # its flip to absent ends in (n, d - n)
        runs = _RUNS[len(flips) // 2]
        for hmask in range(1 << len(high)):
            a_of, t_of, w_high = att_of[:], tgt_of[:], w_args
            for i, (yi, xbit, xi, ybit, n, m) in enumerate(high):
                if hmask >> i & 1:
                    a_of[yi] |= xbit
                    t_of[xi] |= ybit
                    w_high *= n
                else:
                    w_high *= m
            view = _Scenario(present, a_of, t_of)
            for r, steps in runs:
                ticks += len(steps) + 1
                if ticks > _DEADLINE_STRIDE:
                    if deadline is not None and time.monotonic() > deadline:
                        raise BudgetExceeded("oracle enumeration ran out of time")
                    ticks = len(steps) + 1
                w = w_high
                if r:
                    # the step into scenario r, and the weight of its state
                    yi, xbit, xi, ybit, _, _ = flips[_STEPS[r - 1]]
                    a_of[yi] ^= xbit
                    t_of[xi] ^= ybit
                    g = r ^ r >> 1  # the low attacks present there
                    for j in range(len(flips) // 2):
                        if g >> j & 1:
                            *_, div, mul = flips[2 * j]
                            w = w // div * mul
                yield view, w, flips, steps


def _iter_scenarios(paf: PAF, deadline=None, required: int = 0) -> Iterator[tuple[_Scenario, int]]:
    """Yield (bitmask view, weight) for every certain-respecting subframework
    in which the arguments of the bitmask ``required`` are present, exactly
    once each; its probability is weight / ``_denominator(paf)``.

    An uncertain element with probability n/d puts n into the weight when
    present and d - n when absent; an uncertain attack with an absent
    endpoint puts d.  Order is a binary counter over the uncertain arguments
    (canonical order, first argument in the least significant position, bit
    set = present), then for each argument choice a walk over the uncertain
    attacks (sorted, bit set = present) whose endpoints are both present.

    That walk splits the attacks into a low block of the first ``_BLOCK``
    and the high rest, counted in binary.  For each pattern of the high
    attacks, one view walks the low block in reflected Gray order (Knuth,
    TAOCP 4A, 7.2.1.1): step ``r > 0`` toggles low attack ``ctz(r)`` in
    place.  So the scenario at ``high << _BLOCK | r`` holds the attacks
    ``high << _BLOCK | (r ^ (r >> 1))``.  A yielded view is valid until the
    next one is drawn: read it before drawing on.

    A required argument is treated as certain, with its numerator n put
    into every weight, and leaves the argument counter.  So the stream is
    the unrestricted one with the scenarios that lack a required argument
    left out, in the same order and with the same weights.
    """
    for view, w, flips, steps in _blocks(paf, deadline, required):
        a_of, t_of = view.att_of, view.tgt_of
        yield view, w
        for s in steps:
            yi, xbit, xi, ybit, div, mul = flips[s]
            a_of[yi] ^= xbit
            t_of[xi] ^= ybit
            w = w // div * mul
            yield view, w


def enumerate_subframeworks(
    paf: PAF, cap: int = DEFAULT_UNCERTAINTY_CAP, deadline=None
) -> Iterator[tuple[Subframework, Fraction]]:
    """Stream every certain-respecting subframework with its probability, in
    the order of ``_iter_scenarios``' walk."""
    _check_capacity(paf, cap)
    args, den = paf.af.arguments, _denominator(paf)
    index = {a: i for i, a in enumerate(args)}
    attacks = [((x, y), index[y], 1 << index[x]) for x, y in sorted(paf.af.attacks)]
    for sc, w in _iter_scenarios(paf, deadline):
        present = frozenset(a for i, a in enumerate(args) if sc.present >> i & 1)
        atts = frozenset(att for att, yi, xbit in attacks if sc.att_of[yi] & xbit)
        yield Subframework(present, atts), Fraction(w, den)


def _union(rows: list[int], mask: int) -> int:
    """The union of ``rows[i]`` over the bits ``i`` of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


class _Scenario:
    """Bitmask view of one subframework, for fast semantics checks.

    ``att_of`` and ``tgt_of`` hold only attacks whose endpoints are both
    present, so no check masks them with ``present``.
    """

    __slots__ = ("present", "att_of", "tgt_of")

    def __init__(self, present: int, att_of: list[int], tgt_of: list[int]):
        self.present = present
        self.att_of = att_of  # att_of[i]: bits of the attackers of argument i
        self.tgt_of = tgt_of  # tgt_of[i]: bits of the targets of argument i

    def is_extension(self, S: int, sigma: str) -> bool:
        if S & ~self.present:
            return False
        if sigma == "grd":
            # a part of the grounded extension that adds an argument outside
            # S, or attacks a member of S (so cannot hold it), is not S
            return S == self.grounded(~S, S)
        hit = _union(self.tgt_of, S)
        if hit & S:
            return False
        if sigma == "stb":
            return self.present & ~S & ~hit == 0
        # admissibility: every attacker of S is counter-attacked
        if _union(self.att_of, S) & ~hit:
            return False
        if sigma == "adm":
            return True
        # completeness: every defended argument already belongs to S.  An
        # argument that S attacks has an attacker in S, which conflict-free S
        # does not attack, so only one that S leaves unattacked is defended
        m = self.present & ~S & ~hit
        while m:
            low = m & -m
            if self.att_of[low.bit_length() - 1] & ~hit == 0:
                return False
            m ^= low
        return True

    def grounded(self, joins: int = 0, hits: int = 0) -> int:
        """The grounded extension, grown from the empty set one round at a time.

        A round adds T, the arguments neither in S nor attacked by S whose
        attackers S all attacks, and the targets of T to those S attacks; the
        growth stops when T is empty.  This is the least fixed point of the
        defence function F: F is monotone, so a member of S stays in, and S,
        a subset of the grounded extension, is conflict-free, so an argument
        that S attacks can never join.  It returns early, with the S grown so
        far, once a round adds an argument of ``joins`` or attacks one of
        ``hits``.
        """
        att_of, tgt_of = self.att_of, self.tgt_of
        S = hit = 0
        while True:
            T = t_hit = 0
            m = self.present & ~(S | hit)
            while m:
                low = m & -m
                i = low.bit_length() - 1
                if att_of[i] & ~hit == 0:
                    T |= low
                    t_hit |= tgt_of[i]
                m ^= low
            if not T:
                return S
            S |= T
            hit |= t_hit
            if T & joins or hit & hits:
                return S

    def accepts(self, abit: int, sigma: str, deadline=None) -> bool:
        """Credulous acceptance: some sigma-extension contains the argument
        whose bit is ``abit`` (for grd, the grounded extension does).

        A search grows a conflict-free S from ``{a}`` (Modgil & Caminada,
        2009).  An argument is open when it is present, outside S and not
        attacked by S, and, under adm and com, attacks S.  It picks an open
        ``b``, one that attacks S if there is one, and branches on ``b`` and
        on each attacker of ``b``, wherever S stays conflict-free (under adm
        and com, ``b`` never does); the j-th branch never adds the first j-1
        candidates, so no set is reached twice.  With nothing open, S is
        admissible, so it extends to a complete set, or under stb S is
        stable: a yes is sound.  If some extension E holds ``a``, each step
        can add a member of E (``b`` if it is in E, else an attacker of
        ``b`` in E; the first candidate in E excludes only non-members), so
        the search never leaves E and answers yes.  S can hold every present
        argument: the stack is explicit, and the deadline is checked every
        ``_DEADLINE_STRIDE`` steps.
        """
        if not self.present & abit:
            return False
        if sigma == "grd":
            # decided once the argument joins (yes) or is attacked (no)
            return bool(self.grounded(abit, abit) & abit)
        a = abit.bit_length() - 1
        if self.tgt_of[a] & abit:
            return False
        scope = self.present if sigma == "stb" else 0
        stack, steps = [(abit, self.tgt_of[a], self.att_of[a], 0)], 0
        while stack:
            steps += 1
            if deadline is not None and steps % _DEADLINE_STRIDE == 0 and time.monotonic() > deadline:
                raise BudgetExceeded("oracle enumeration ran out of time")
            S, hit, att, out = stack.pop()
            open_ = (att | scope & ~S) & ~hit
            if not open_:
                return True
            pick = open_ & att or open_
            low = pick & -pick
            m = (self.att_of[low.bit_length() - 1] | low) & ~out
            while m:
                c = m & -m
                m ^= c
                i = c.bit_length() - 1
                T, h = S | c, hit | self.tgt_of[i]
                if not h & T:
                    stack.append((T, h, att | self.att_of[i], out))
                out |= c
        return False


def _ancestors(af, a: str) -> set[str]:
    """``a`` and every argument with a directed attack path to it."""
    seen, todo = {a}, [a]
    while todo:
        for x in af.attackers(todo.pop()):
            if x not in seen:
                seen.add(x)
                todo.append(x)
    return seen


def _fold(paf: PAF, sigma: str, members, cap: int, deadline, holds, weighted: bool):
    """Sum the probabilities (``weighted``) or count the scenarios in which
    ``holds(scenario, mask of members, sigma)`` is true, walking each run of
    ``_blocks`` in one loop; a count moves no weight.

    ``holds`` is false in every scenario that lacks a member, so only the
    scenarios in which every member is present are enumerated."""
    if sigma not in ORACLE_SEMANTICS:
        raise InputError(f"unknown semantics {sigma!r}")
    _check_capacity(paf, cap)
    index = {a: i for i, a in enumerate(paf.af.arguments)}
    mask = sum(1 << index[a] for a in paf.af.check_subset(members))
    total = 0
    for view, w, flips, steps in _blocks(paf, deadline, mask):
        a_of, t_of = view.att_of, view.tgt_of
        if weighted:
            if holds(view, mask, sigma):
                total += w
            for s in steps:
                yi, xbit, xi, ybit, div, mul = flips[s]
                a_of[yi] ^= xbit
                t_of[xi] ^= ybit
                w = w // div * mul
                if holds(view, mask, sigma):
                    total += w
        else:
            if holds(view, mask, sigma):
                total += 1
            for s in steps:
                yi, xbit, xi, ybit, _, _ = flips[s]
                a_of[yi] ^= xbit
                t_of[xi] ^= ybit
                if holds(view, mask, sigma):
                    total += 1
    return Fraction(total, _denominator(paf)) if weighted else total


def p_ext_oracle(
    paf: PAF,
    sigma: str,
    S,
    cap: int = DEFAULT_UNCERTAINTY_CAP,
    deadline=None,
) -> Fraction:
    """Probability that S is a sigma-extension, summed over all scenarios."""
    return _fold(paf, sigma, S, cap, deadline, _Scenario.is_extension, weighted=True)


def p_acc_oracle(
    paf: PAF,
    sigma: str,
    a: str,
    cap: int = DEFAULT_UNCERTAINTY_CAP,
    deadline=None,
) -> Fraction:
    """Probability that ``a`` is credulously accepted: some sigma-extension
    contains it (for ``grd``, it is in the grounded extension).

    Under adm, com and grd the sum runs over the sub-PAF of ``a``'s
    ancestors (``a`` and every argument with a directed attack path to it).
    These semantics are directional (Baroni & Giacomin, AIJ 171, 2007): no
    attack enters the ancestors from outside, so acceptance in a scenario
    depends only on its part within them, and the choices outside sum to 1.
    The cap still counts the whole instance.  Under stb the whole instance
    is walked: a certain odd cycle anywhere leaves no stable extension."""
    holds = partial(_Scenario.accepts, deadline=deadline)
    if sigma in _DIRECTIONAL:
        _check_capacity(paf, cap)
        keep = _ancestors(paf.af, *paf.af.check_subset((a,)))
        if len(keep) < len(paf.af.arguments):
            paf = paf.without_arguments([x for x in paf.af.arguments if x not in keep])
    return _fold(paf, sigma, (a,), cap, deadline, holds, weighted=True)


def count_ext(
    paf: PAF,
    sigma: str,
    S,
    cap: int = DEFAULT_UNCERTAINTY_CAP,
    deadline=None,
) -> int:
    """Number of scenarios in which S is a sigma-extension."""
    return _fold(paf, sigma, S, cap, deadline, _Scenario.is_extension, weighted=False)


def count_acc(
    paf: PAF,
    sigma: str,
    a: str,
    cap: int = DEFAULT_UNCERTAINTY_CAP,
    deadline=None,
) -> int:
    """Number of scenarios in which ``a`` is credulously accepted: some
    sigma-extension contains it (for ``grd``, it is in the grounded extension).

    Unlike ``p_acc_oracle``, this walks the whole instance under every
    semantics: a count is no product over the ancestors and the rest, since
    how many ways the rest completes depends on which ancestors are present."""
    holds = partial(_Scenario.accepts, deadline=deadline)
    return _fold(paf, sigma, (a,), cap, deadline, holds, weighted=False)
