import random
from fractions import Fraction
from pathlib import Path

import pytest

from paftd import AF, PAF

FIXTURES = Path(__file__).parent / "fixtures"

# one line per acceptance criterion, echoed after the test run
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.line(line)


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def tenth(rnd: random.Random) -> Fraction:
    return Fraction(rnd.randint(1, 9), 10)


# pairwise co-prime denominators, each with n != d - n: a weight divided by
# the wrong factor of an element shows, where p = 1/2 gives n = d - n = 1
COPRIME = tuple(Fraction(n, d) for n, d in ((1, 3), (2, 7), (3, 11), (5, 13)))


def coprime(rnd: random.Random) -> Fraction:
    return rnd.choice(COPRIME)


def random_paf(rnd: random.Random, max_args: int = 8, max_uncertain: int = 12, draw=tenth) -> PAF:
    """A small random PAF with a bounded number of uncertain elements,
    suitable for oracle cross-checks; ``draw(rnd)`` gives each uncertain
    probability, a tenth by default."""
    n = rnd.randint(1, max_args)
    names = [f"x{i}" for i in range(n)]
    attacks = [(x, y) for x in names for y in names if rnd.random() < 0.3]
    pool = names + attacks
    uncertain = set(rnd.sample(range(len(pool)), min(max_uncertain, len(pool))))
    arg_prob = {
        a: draw(rnd) if i in uncertain else Fraction(1) for i, a in enumerate(names)
    }
    att_prob = {
        r: draw(rnd) if len(names) + i in uncertain else Fraction(1)
        for i, r in enumerate(attacks)
    }
    return PAF(AF(names, attacks), arg_prob, att_prob)


def dense_paf(n: int, density: float, uncertain: int, seed: int = 0) -> PAF:
    """The dense generator: arguments ``a0..a{n-1}``; each ordered pair, a
    self-pair too, is attacked with probability ``density`` in row-major
    order; then ``uncertain`` elements (arguments first, then attacks, in
    that order), or all if fewer, are drawn and each, in the order drawn,
    gets a tenth."""
    rnd = random.Random(seed)
    names = [f"a{i}" for i in range(n)]
    attacks = [(x, y) for x in names for y in names if rnd.random() < density]
    pool = names + attacks
    probs = {pool[i]: tenth(rnd) for i in rnd.sample(range(len(pool)), min(uncertain, len(pool)))}
    return PAF(AF(names, attacks), {a: probs.get(a, 1) for a in names}, {r: probs.get(r, 1) for r in attacks})


def random_subset(rnd: random.Random, paf: PAF, rate: float = 0.4) -> frozenset:
    return frozenset(a for a in paf.af.arguments if rnd.random() < rate)
