"""Argumentation frameworks, their probabilistic variant, and the classic semantics.

An :class:`AF` is a finite directed attack graph.  A :class:`PAF` attaches a
marginal probability to every argument and attack; a concrete scenario is a
:class:`Subframework`, and under the independence model its probability is the
product of the marginals of everything present (and one minus the marginal of
everything that could be present but is not).

Extensions are computed by plain enumeration here, as the independent
reference the faster code paths in :mod:`paftd.oracle` and
:mod:`paftd.solver` are tested against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

from .errors import CapacityError, InputError

EXTENSION_SEMANTICS = ("cf", "adm", "com", "stb", "grd")

Attack = tuple[str, str]

_NAME_RE = re.compile(r"^(?!#)[^\s,]+$")

# enumeration guards; subset enumeration is exponential in |A|
MAX_ENUM_ARGUMENTS = 20

# Python's default bound on an int literal's digits, so that the exponent k
# of 1e-k is bounded as the k decimals of 0.00...1 are; every run of digits in
# a probability string is bounded by it, whatever the interpreter's own limit
MAX_EXPONENT = 4300
_DIGITS = rf"\d{{1,{MAX_EXPONENT}}}"
# a probability string on every Python version: a decimal or p/q, with no
# digit separators or inner whitespace (``Fraction`` alone varies with it)
_PROBABILITY_RE = re.compile(
    rf"\s*[+-]?(?=\.?\d)(?:{_DIGITS})?(?:/{_DIGITS}|(?:\.(?:{_DIGITS})?)?(?:e[+-]?(?P<exp>{_DIGITS}))?)\s*",
    re.I | re.ASCII,
)


def is_valid_arg_name(name: str) -> bool:
    """Argument names are non-empty tokens without whitespace or commas and
    must not start with ``#`` (reserved for comments in the file format)."""
    return isinstance(name, str) and bool(_NAME_RE.match(name))


def as_probability(value) -> Fraction:
    """Coerce a probability in (0, 1] given as Fraction, int, Decimal or a
    decimal or ``p/q`` string; library and file input share this one check.
    Zero is rejected (drop the element instead), and so are binary floats:
    they would silently smuggle rounding error into the exact arithmetic mode.
    """
    if type(value) is Fraction and 0 < value.numerator <= value.denominator:
        return value  # immutable, so each element is coerced once
    if isinstance(value, float):
        raise InputError(f"refusing float probability {value!r}; pass a string or Fraction")
    try:
        if isinstance(value, str):
            m = _PROBABILITY_RE.fullmatch(value)
            if m is None or int(m["exp"] or 0) > MAX_EXPONENT:
                raise ValueError
        elif isinstance(value, Decimal):
            if not value.is_finite() or abs(value.as_tuple().exponent) > MAX_EXPONENT:
                raise ValueError
        elif not isinstance(value, (Fraction, int)):
            raise ValueError
        p = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"invalid probability {value!r}") from None
    if p == 0:
        raise InputError("zero-probability element; remove it from the instance")
    if not 0 < p <= 1:
        raise InputError(f"probability {value!r} outside (0, 1]")
    return p


def _pair(att) -> Attack:
    """``att`` as an ``(x, y)`` tuple of hashable endpoints; a string is
    not a pair, though a two-character one unpacks as one."""
    try:
        if isinstance(att, str):
            raise TypeError
        x, y = att
        hash((x, y))
    except (TypeError, ValueError):
        raise InputError(f"attack {att!r} is not a pair of arguments") from None
    return x, y


def exact_text(value: Fraction) -> str:
    """``str(value)``, also past Python's int-to-string digit limit: the
    digits come from ``Decimal``, which that limit does not cover."""
    n, d = Decimal(value.numerator), Decimal(value.denominator)
    return f"{n}" if d == 1 else f"{n}/{d}"


class AF:
    """An argumentation framework: arguments plus a directed attack relation.

    Arguments are kept in lexicographic order, which is the canonical order
    used for iteration and serialization everywhere in the package.
    Immutable after construction.
    """

    __slots__ = ("arguments", "attacks", "_attackers", "_targets")

    def __init__(self, arguments, attacks=()):
        try:
            if isinstance(arguments, str) or isinstance(attacks, str):
                raise TypeError  # a string iterates as its characters
            names, attacks = list(arguments), list(attacks)
        except TypeError:
            raise InputError("an AF takes an iterable of arguments and one of attacks") from None
        bad = [a for a in names if not is_valid_arg_name(a)]
        if bad:  # names are checked before they are sorted, which a non-string would break
            raise InputError(f"invalid argument name {min(bad, key=str)!r}")
        argset = set(names)
        atts = set()
        for att in attacks:
            x, y = _pair(att)
            if x not in argset or y not in argset:
                raise InputError(f"attack {att!r} has an undeclared endpoint")
            atts.add((x, y))
        self._build(argset, atts)

    @classmethod
    def _checked(cls, names, attacks) -> "AF":
        """The AF of distinct valid ``names`` and distinct ``(x, y)`` pairs
        between them, which the caller has already checked."""
        af = object.__new__(cls)
        af._build(names, attacks)
        return af

    def _build(self, names, attacks) -> None:
        args = tuple(sorted(names))
        self.arguments: tuple[str, ...] = args
        self.attacks: frozenset[Attack] = frozenset(attacks)
        attackers = {a: set() for a in args}
        targets = {a: set() for a in args}
        for x, y in self.attacks:
            attackers[y].add(x)
            targets[x].add(y)
        self._attackers = {a: frozenset(s) for a, s in attackers.items()}
        self._targets = {a: frozenset(s) for a, s in targets.items()}

    def attackers(self, a: str) -> frozenset[str]:
        self._check_member(a)
        return self._attackers[a]

    def targets(self, a: str) -> frozenset[str]:
        self._check_member(a)
        return self._targets[a]

    def _check_member(self, a: str) -> None:
        if a not in self._attackers:
            raise InputError(f"unknown argument {a!r}")

    def check_subset(self, S) -> frozenset[str]:
        try:
            S = frozenset(S)
        except TypeError:
            raise InputError(f"query set {S!r} is not a set of argument names") from None
        for a in S:
            self._check_member(a)
        return S

    def __eq__(self, other):
        if not isinstance(other, AF):
            return NotImplemented
        return self.arguments == other.arguments and self.attacks == other.attacks

    def __hash__(self):
        return hash((self.arguments, self.attacks))

    def __repr__(self):
        return f"AF({list(self.arguments)}, {sorted(self.attacks)})"


def is_conflict_free(af: AF, S) -> bool:
    """True iff no attack runs between two members of S (self-attacks count)."""
    S = af.check_subset(S)
    return not any(x in S and y in S for x, y in af.attacks)


def defends(af: AF, S, a: str) -> bool:
    """True iff every attacker of ``a`` is attacked by some member of S."""
    S = af.check_subset(S)
    af._check_member(a)
    return all(af.attackers(b) & S for b in af.attackers(a))


def _attacked_by(af: AF, S) -> frozenset[str]:
    out = set()
    for a in S:
        out |= af._targets[a]
    return frozenset(out)


def _subsets(items):
    for r in range(len(items) + 1):
        yield from combinations(items, r)


def extensions(af: AF, sigma: str) -> frozenset[frozenset[str]]:
    """All sigma-extensions of ``af``, by enumeration over argument subsets."""
    if sigma not in EXTENSION_SEMANTICS:
        raise InputError(f"unknown semantics {sigma!r}")
    if len(af.arguments) > MAX_ENUM_ARGUMENTS:
        raise CapacityError(
            f"extension enumeration capped at {MAX_ENUM_ARGUMENTS} arguments"
        )
    if sigma == "grd":
        com = extensions(af, "com")
        return frozenset(S for S in com if not any(T < S for T in com))

    found = set()
    allargs = frozenset(af.arguments)
    for cand in _subsets(af.arguments):
        S = frozenset(cand)
        if not is_conflict_free(af, S):
            continue
        if sigma == "cf":
            found.add(S)
        elif sigma == "stb":
            if allargs - S <= _attacked_by(af, S):
                found.add(S)
        else:
            if not all(defends(af, S, a) for a in S):
                continue
            if sigma == "adm":
                found.add(S)
            elif all(a in S for a in allargs - S if defends(af, S, a)):
                found.add(S)
    return frozenset(found)


def grounded_extension(af: AF) -> frozenset[str]:
    """The unique grounded extension, via the iterated-defense fixed point."""
    S: frozenset[str] = frozenset()
    while True:
        T = frozenset(a for a in af.arguments if defends(af, S, a))
        if T == S:
            return S
        S = T


class PAF:
    """A probabilistic AF: marginal probabilities for every argument and attack.

    Zero-probability elements are rejected; normalize the instance by dropping
    them before construction.  Immutable after construction.
    """

    __slots__ = ("af", "arg_prob", "att_prob")

    def __init__(self, af: AF, arg_prob, att_prob):
        if not isinstance(af, AF):
            raise InputError(f"{af!r} is not an AF")
        try:
            arg_prob, att_prob = dict(arg_prob), dict(att_prob)
        except (TypeError, ValueError):
            raise InputError("a PAF takes its probabilities as mappings") from None
        arg_prob = {a: as_probability(p) for a, p in arg_prob.items()}
        att_prob = {_pair(r): as_probability(p) for r, p in att_prob.items()}
        if set(arg_prob) != set(af.arguments):
            raise InputError("argument probabilities do not cover the arguments")
        if set(att_prob) != set(af.attacks):
            raise InputError("attack probabilities do not cover the attacks")
        self._build(af, arg_prob, att_prob)

    @classmethod
    def _checked(cls, af: AF, arg_prob: dict, att_prob: dict) -> "PAF":
        """The PAF of dicts that map exactly ``af``'s arguments and attacks to
        values of ``as_probability``, which the caller has already checked."""
        paf = object.__new__(cls)
        paf._build(af, arg_prob, att_prob)
        return paf

    def _build(self, af: AF, arg_prob: dict, att_prob: dict) -> None:
        self.af = af
        self.arg_prob = arg_prob
        self.att_prob = att_prob

    @classmethod
    def certain(cls, af: AF) -> "PAF":
        """Wrap a plain AF with all probabilities equal to one."""
        return cls(af, {a: 1 for a in af.arguments}, {r: 1 for r in af.attacks})

    def arg_certain(self, a: str) -> bool:
        return self.arg_prob[a] == 1

    def att_certain(self, r: Attack) -> bool:
        return self.att_prob[r] == 1

    def uncertain_args(self) -> tuple[str, ...]:
        return tuple(a for a in self.af.arguments if self.arg_prob[a] != 1)

    def uncertain_attacks(self) -> tuple[Attack, ...]:
        return tuple(sorted(r for r in self.af.attacks if self.att_prob[r] != 1))

    def uncertainty_count(self) -> int:
        return len(self.uncertain_args()) + len(self.uncertain_attacks())

    def without_arguments(self, removed) -> "PAF":
        """A copy with the given arguments and their incident attacks deleted."""
        removed = self.af.check_subset(removed)
        keep = [a for a in self.af.arguments if a not in removed]
        atts = [r for r in self.af.attacks if r[0] not in removed and r[1] not in removed]
        return PAF._checked(
            AF._checked(keep, atts),
            {a: self.arg_prob[a] for a in keep},
            {r: self.att_prob[r] for r in atts},
        )

    def __eq__(self, other):
        if not isinstance(other, PAF):
            return NotImplemented
        return (
            self.af == other.af
            and self.arg_prob == other.arg_prob
            and self.att_prob == other.att_prob
        )

    def __hash__(self):
        return hash(
            (self.af, frozenset(self.arg_prob.items()), frozenset(self.att_prob.items()))
        )

    def __repr__(self):
        return f"PAF({self.af!r}, {len(self.uncertain_args())} uncertain args)"


@dataclass(frozen=True)
class Subframework:
    """One concrete scenario: the arguments and attacks actually present."""

    args: frozenset[str]
    atts: frozenset[Attack]

    def to_af(self) -> AF:
        return AF(self.args, self.atts)


def is_certain_respecting(paf: PAF, sub: Subframework) -> bool:
    """Membership test for the certain-constrained subframework family:
    probability-one arguments are present, and probability-one attacks are
    present whenever both endpoints are."""
    if not sub.args <= set(paf.af.arguments):
        return False
    if not sub.atts <= paf.af.attacks:
        return False
    if any(x not in sub.args or y not in sub.args for x, y in sub.atts):
        return False
    for a in paf.af.arguments:
        if paf.arg_certain(a) and a not in sub.args:
            return False
    for x, y in paf.af.attacks:
        if (
            paf.att_certain((x, y))
            and x in sub.args
            and y in sub.args
            and (x, y) not in sub.atts
        ):
            return False
    return True


def subframework_probability(paf: PAF, sub: Subframework) -> Fraction:
    """The independence-model probability of one subframework."""
    if not is_certain_respecting(paf, sub):
        raise InputError("subframework violates the certain part of the PAF")
    p = Fraction(1)
    for a in paf.af.arguments:
        p *= paf.arg_prob[a] if a in sub.args else 1 - paf.arg_prob[a]
    for r in paf.af.attacks:
        x, y = r
        if x in sub.args and y in sub.args:
            p *= paf.att_prob[r] if r in sub.atts else 1 - paf.att_prob[r]
    return p
