"""Seeded grid-instance generator.

Arguments sit on a k-by-n grid.  Each horizontal/vertical neighbor pair
independently becomes no attack, a single attack in either direction, or a
mutual attack, uniformly over the four options.  Every argument and attack
draws its probability from {0.1, ..., 0.9} with weight 10/91 each and 1 with
weight 1/91.  The query set picks each argument independently with
probability 0.04.

Randomness comes from three PCG64 substreams (topology, probabilities,
query) spawned from the seed, so identical seeds reproduce identical
instances byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import AF, PAF
from .errors import InputError
from .paffile import serialize_paf

QUERY_RATE = 0.04


@dataclass(frozen=True)
class GridSpec:
    rows: int
    cols: int
    seed: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise InputError("grid dimensions must be positive")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")


def draw_probability(rng: np.random.Generator) -> Fraction:
    """One draw from the instance probability distribution."""
    t = int(rng.integers(91))
    return Fraction(t // 10 + 1, 10) if t < 90 else Fraction(1)


def _argument_names(spec: GridSpec) -> list[list[str]]:
    rw = len(str(spec.rows))
    cw = len(str(spec.cols))
    return [
        [f"a{r + 1:0{rw}d}_{c + 1:0{cw}d}" for c in range(spec.cols)]
        for r in range(spec.rows)
    ]


def generate_grid(spec: GridSpec) -> tuple[PAF, frozenset[str]]:
    """Generate one grid PAF and its query set, fully determined by the seed."""
    topo_ss, prob_ss, query_ss = np.random.SeedSequence(spec.seed).spawn(3)
    rng_topo = np.random.Generator(np.random.PCG64(topo_ss))
    rng_prob = np.random.Generator(np.random.PCG64(prob_ss))
    rng_query = np.random.Generator(np.random.PCG64(query_ss))

    names = _argument_names(spec)
    flat = [name for row in names for name in row]

    attacks: list[tuple[str, str]] = []
    for r in range(spec.rows):
        for c in range(spec.cols):
            here = names[r][c]
            neighbors = []
            if c + 1 < spec.cols:
                neighbors.append(names[r][c + 1])
            if r + 1 < spec.rows:
                neighbors.append(names[r + 1][c])
            for other in neighbors:
                choice = int(rng_topo.integers(4))
                if choice in (1, 3):
                    attacks.append((here, other))
                if choice in (2, 3):
                    attacks.append((other, here))

    arg_prob = {a: draw_probability(rng_prob) for a in flat}
    att_prob = {r: draw_probability(rng_prob) for r in attacks}
    query = frozenset(a for a in flat if rng_query.random() < QUERY_RATE)
    return PAF(AF(flat, attacks), arg_prob, att_prob), query


def generate_grid_document(spec: GridSpec) -> str:
    """The generated instance as canonical PAF text, with a provenance header."""
    paf, query = generate_grid(spec)
    header = (
        f"grid instance rows={spec.rows} cols={spec.cols} seed={spec.seed}",
        "attack option per neighbor pair: uniform over {none, forward, backward, mutual}",
        "probabilities: 0.1..0.9 with weight 10/91 each, 1 with weight 1/91",
        "rng: PCG64, substreams spawned from the seed as (topology, probabilities, query)",
    )
    return serialize_paf(paf, query_set=query, header=header)


def grid_elimination_order(spec: GridSpec) -> list[str]:
    """Elimination ordering that sweeps the grid line by line along its
    longer dimension, so the frontier is one short line and the resulting
    decomposition width is at most min(rows, cols)."""
    names = _argument_names(spec)
    if spec.cols >= spec.rows:
        return [names[r][c] for c in range(spec.cols) for r in range(spec.rows)]
    return [name for row in names for name in row]
