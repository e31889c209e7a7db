"""Brute-force enumeration over all certain-respecting subframeworks.

This module is the ground truth the tree-decomposition solver is checked
against: it materializes every scenario of a PAF, evaluates the queried
semantics directly on it, and sums probabilities (or counts scenarios).
Runtime is exponential in the number of uncertain elements, so a capacity
cap guards every entry point.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Iterator

from .core import PAF, Subframework
from .errors import BudgetExceeded, CapacityError, InputError

DEFAULT_UNCERTAINTY_CAP = 30

ORACLE_SEMANTICS = ("adm", "com", "stb", "grd")

_DEADLINE_STRIDE = 256


def _check_capacity(paf: PAF, cap: int) -> None:
    n = paf.uncertainty_count()
    if n > cap:
        raise CapacityError(
            f"{n} uncertain elements exceed the enumeration cap of {cap}"
        )


def _iter_scenarios(paf: PAF, deadline=None) -> Iterator[tuple[frozenset, frozenset, Fraction]]:
    """Yield (present arguments, present attacks, probability) for every
    certain-respecting subframework, exactly once each.

    Order is a binary counter over the uncertain arguments (canonical order,
    first argument in the least significant position, bit set = present),
    then for each argument choice a binary counter over the uncertain attacks
    whose endpoints are both present.
    """
    certain_args = frozenset(a for a in paf.af.arguments if paf.arg_certain(a))
    u_args = paf.uncertain_args()
    all_atts = sorted(paf.af.attacks)
    ticks = 0
    for amask in range(1 << len(u_args)):
        present = set(certain_args)
        p_args = Fraction(1)
        for i, a in enumerate(u_args):
            if amask >> i & 1:
                present.add(a)
                p_args *= paf.arg_prob[a]
            else:
                p_args *= 1 - paf.arg_prob[a]
        present = frozenset(present)
        possible = [r for r in all_atts if r[0] in present and r[1] in present]
        forced = [r for r in possible if paf.att_certain(r)]
        u_atts = [r for r in possible if not paf.att_certain(r)]
        for rmask in range(1 << len(u_atts)):
            ticks += 1
            if deadline is not None and ticks % _DEADLINE_STRIDE == 0:
                if time.monotonic() > deadline:
                    raise BudgetExceeded("oracle enumeration ran out of time")
            atts = list(forced)
            p = p_args
            for i, r in enumerate(u_atts):
                if rmask >> i & 1:
                    atts.append(r)
                    p *= paf.att_prob[r]
                else:
                    p *= 1 - paf.att_prob[r]
            yield present, frozenset(atts), p


def enumerate_subframeworks(
    paf: PAF, cap: int = DEFAULT_UNCERTAINTY_CAP, deadline=None
) -> Iterator[tuple[Subframework, Fraction]]:
    """Stream every certain-respecting subframework with its probability."""
    _check_capacity(paf, cap)
    for present, atts, p in _iter_scenarios(paf, deadline):
        yield Subframework(present, atts), p


class _Scenario:
    """Bitmask view of one subframework, for fast semantics checks."""

    __slots__ = ("n", "present", "att_of", "tgt_of")

    def __init__(self, index: dict[str, int], present_args, atts):
        self.n = len(index)
        present = 0
        for a in present_args:
            present |= 1 << index[a]
        self.present = present
        self.att_of = [0] * self.n
        self.tgt_of = [0] * self.n
        for x, y in atts:
            xi, yi = index[x], index[y]
            self.att_of[yi] |= 1 << xi
            self.tgt_of[xi] |= 1 << yi

    def attacked_by(self, mask: int) -> int:
        out = 0
        m = mask
        while m:
            low = m & -m
            out |= self.tgt_of[low.bit_length() - 1]
            m ^= low
        return out

    def is_extension(self, S: int, sigma: str) -> bool:
        if S & ~self.present:
            return False
        # conflict-freeness: no member attacked from within S
        m = S
        while m:
            low = m & -m
            if self.att_of[low.bit_length() - 1] & S:
                return False
            m ^= low
        if sigma == "grd":
            return S == self.grounded()
        hit = self.attacked_by(S)
        if sigma == "stb":
            return (self.present & ~S) & ~hit == 0
        # admissibility: every attacker of S is counter-attacked
        m = S
        while m:
            low = m & -m
            if self.att_of[low.bit_length() - 1] & self.present & ~hit:
                return False
            m ^= low
        if sigma == "adm":
            return True
        # completeness: every defended argument already belongs to S
        m = self.present & ~S
        while m:
            low = m & -m
            if self.att_of[low.bit_length() - 1] & self.present & ~hit == 0:
                return False
            m ^= low
        return True

    def grounded(self) -> int:
        S = 0
        while True:
            hit = self.attacked_by(S)
            T = 0
            m = self.present
            while m:
                low = m & -m
                if self.att_of[low.bit_length() - 1] & self.present & ~hit == 0:
                    T |= low
                m ^= low
            if T == S:
                return S
            S = T

    def accepts(self, abit: int, sigma: str) -> bool:
        """Credulous acceptance: some sigma-extension contains the argument
        whose bit is ``abit``."""
        if not self.present & abit:
            return False
        if sigma == "grd":
            return bool(self.grounded() & abit)
        rest = self.present & ~abit
        sub = rest
        while True:
            if self.is_extension(sub | abit, sigma):
                return True
            if sub == 0:
                return False
            sub = (sub - 1) & rest


def _fold(paf: PAF, sigma: str, members, cap: int, deadline, holds, weighted: bool):
    """Sum the probabilities (``weighted``) or count the scenarios in which
    ``holds(scenario, mask of members, sigma)`` is true."""
    if sigma not in ORACLE_SEMANTICS:
        raise InputError(f"unknown semantics {sigma!r}")
    _check_capacity(paf, cap)
    index = {a: i for i, a in enumerate(paf.af.arguments)}
    mask = sum(1 << index[a] for a in paf.af.check_subset(members))
    total = Fraction(0) if weighted else 0
    for present, atts, p in _iter_scenarios(paf, deadline):
        if holds(_Scenario(index, present, atts), mask, sigma):
            total += p if weighted else 1
    return total


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
    """Probability that some sigma-extension contains ``a``."""
    return _fold(paf, sigma, (a,), cap, deadline, _Scenario.accepts, weighted=True)


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
    """Number of scenarios in which some sigma-extension contains ``a``."""
    return _fold(paf, sigma, (a,), cap, deadline, _Scenario.accepts, weighted=False)
