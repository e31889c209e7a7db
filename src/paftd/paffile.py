"""The textual PAF instance format.

Line-oriented: ``#`` comments, ``arg <name> <prob>``, ``att <src> <dst>
<prob>``, an optional ``set <name>...`` query set and an optional ``query
<name>`` query argument.  Probabilities are decimal literals (or ``p/q``
rationals) in (0, 1]; zero-probability elements must simply be omitted.
Serialization is canonical, so parse(serialize(paf)) == paf.

The parser's checks are the instance's checks: it checks every name,
endpoint and duplicate as it reads them and each probability through
``core.as_probability``, so it builds the ``PAF`` through the constructors'
build step alone (``AF._checked``, ``PAF._checked``), not through the public
constructors, which would check it all again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import AF, PAF, as_probability, is_valid_arg_name
from .errors import InputError


class PafFormatError(InputError):
    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class PafDocument:
    paf: PAF
    query_set: frozenset[str] | None = None
    query_arg: str | None = None


def _parse_probability(token: str, lineno: int, read: dict[str, Fraction]) -> Fraction:
    """The token's probability; ``read`` holds every token this file has
    read so far, so each distinct token is parsed once.  A bad token is never
    stored, so it fails at the first line that holds it."""
    p = read.get(token)
    if p is None:
        try:
            p = read[token] = as_probability(token)
        except InputError as exc:
            raise PafFormatError(str(exc), lineno) from None
    return p


def parse_paf(text: str) -> PafDocument:
    args: dict[str, Fraction] = {}
    atts: dict[tuple[str, str], Fraction] = {}
    read: dict[str, Fraction] = {}
    query_set: frozenset[str] | None = None
    query_arg: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "arg":
            if len(parts) != 3:
                raise PafFormatError("expected: arg <name> <prob>", lineno)
            name = parts[1]
            if not is_valid_arg_name(name):
                raise PafFormatError(f"invalid argument name {name!r}", lineno)
            if name in args:
                raise PafFormatError(f"duplicate argument {name!r}", lineno)
            args[name] = _parse_probability(parts[2], lineno, read)
        elif kind == "att":
            if len(parts) != 4:
                raise PafFormatError("expected: att <src> <dst> <prob>", lineno)
            _, src, dst, token = parts
            if src not in args or dst not in args:
                end = src if src not in args else dst
                raise PafFormatError(f"undeclared endpoint {end!r}", lineno)
            pair = src, dst
            if pair in atts:
                raise PafFormatError(f"duplicate attack ({src},{dst})", lineno)
            atts[pair] = _parse_probability(token, lineno, read)
        elif kind == "set":
            if query_set is not None:
                raise PafFormatError("duplicate set line", lineno)
            for name in parts[1:]:
                if name not in args:
                    raise PafFormatError(f"undeclared set member {name!r}", lineno)
            query_set = frozenset(parts[1:])
        elif kind == "query":
            if query_arg is not None:
                raise PafFormatError("duplicate query line", lineno)
            if len(parts) != 2:
                raise PafFormatError("expected: query <name>", lineno)
            if parts[1] not in args:
                raise PafFormatError(f"undeclared query argument {parts[1]!r}", lineno)
            query_arg = parts[1]
        elif not kind.startswith("#"):
            raise PafFormatError(f"unknown directive {kind!r}", lineno)
    # every name, endpoint, duplicate and probability is checked above
    return PafDocument(PAF._checked(AF._checked(args, atts), args, atts), query_set, query_arg)


def format_probability(p: Fraction) -> str:
    """Shortest exact rendering: a decimal when the denominator divides a
    power of ten, otherwise ``p/q``."""
    if p.denominator == 1:
        return str(p.numerator)
    den = p.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{p.numerator}/{p.denominator}"
    scale = max(twos, fives)
    digits = p.numerator * 10**scale // p.denominator
    text = str(digits).rjust(scale, "0")
    whole, frac = text[:-scale] or "0", text[-scale:]
    return f"{whole}.{frac}"


def serialize_paf(
    paf: PAF,
    query_set=None,
    query_arg: str | None = None,
    header: tuple[str, ...] = (),
) -> str:
    lines = [f"# {h}" for h in header]
    for a in paf.af.arguments:
        lines.append(f"arg {a} {format_probability(paf.arg_prob[a])}")
    for src, dst in sorted(paf.af.attacks):
        lines.append(f"att {src} {dst} {format_probability(paf.att_prob[(src, dst)])}")
    if query_set is not None:
        lines.append(" ".join(["set", *sorted(paf.af.check_subset(query_set))]).rstrip())
    if query_arg is not None:
        paf.af._check_member(query_arg)
        lines.append(f"query {query_arg}")
    return "\n".join(lines) + "\n" if lines else ""
