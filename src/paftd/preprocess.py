"""Instance simplification via forced labels.

A least fixed point propagates labels that hold in *every* scenario: an
argument is forced in when all of its attackers (over the full attack
relation, certain or not) are already forced out, and forced out when a
certain, forced-in attacker reaches it through a certain attack.  Forced
labels license sound query simplifications for the complete semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import PAF
from .errors import InputError

__all__ = ["ForcedLabeling", "forced_labeling", "simplify_for_ext", "simplify_for_acc", "ExtSimplification"]


@dataclass(frozen=True)
class ForcedLabeling:
    forced_in: frozenset[str]
    forced_out: frozenset[str]

    def __post_init__(self):
        if self.forced_in & self.forced_out:
            raise InputError("an argument cannot be forced both in and out")


def forced_labeling(paf: PAF) -> ForcedLabeling:
    """Least fixed point of the forced-label operator, worked from a list
    that starts with every argument: a newly labeled argument pushes its
    targets, the only arguments whose rules read its label.  The in-rule
    quantifies over all attacks regardless of certainty: an attacker that is
    merely *possibly* present blocks the in-label unless it is itself forced
    out in every scenario."""
    af = paf.af
    fin: set[str] = set()
    fout: set[str] = set()
    work = list(af.arguments)
    while work:
        a = work.pop()
        if a in fin or a in fout:
            continue
        if all(b in fout for b in af.attackers(a)):
            fin.add(a)
        elif any(
            b in fin and paf.arg_certain(b) and paf.att_certain((b, a))
            for b in af.attackers(a)
        ):
            fout.add(a)
        else:
            continue
        work.extend(af.targets(a))
    return ForcedLabeling(frozenset(fin), frozenset(fout))


@dataclass(frozen=True)
class ExtSimplification:
    """Outcome of simplifying a P-Ext query under complete semantics.

    Either the probability is zero outright, or the query on the reduced
    instance, scaled by ``multiplier``, equals the original probability.
    """

    zero: bool
    paf: PAF | None
    multiplier: Fraction


def simplify_for_ext(paf: PAF, S) -> ExtSimplification:
    """Simplify a P-Ext query (complete semantics only).

    Zero when S contains a forced-out argument or omits a certain forced-in
    one.  Uncertain forced-in arguments outside S are deleted: only scenarios
    without them can have S complete, which contributes a (1 - P(a)) factor.
    """
    S = paf.af.check_subset(S)
    forced = forced_labeling(paf)
    if S & forced.forced_out:
        return ExtSimplification(True, None, Fraction(0))
    removable = set()
    for a in forced.forced_in - S:
        if paf.arg_certain(a):
            return ExtSimplification(True, None, Fraction(0))
        removable.add(a)
    multiplier = Fraction(1)
    for a in removable:
        multiplier *= 1 - paf.arg_prob[a]
    reduced = paf.without_arguments(removable) if removable else paf
    return ExtSimplification(False, reduced, multiplier)


def simplify_for_acc(paf: PAF, a: str) -> bool:
    """True iff the acceptance probability of ``a`` is provably zero."""
    paf.af._check_member(a)
    return a in forced_labeling(paf).forced_out

