from fractions import Fraction

import numpy as np
import pytest

from paftd import (
    GridSpec,
    InputError,
    decompose,
    generate_grid,
    generate_grid_document,
    grid_elimination_order,
    parse_paf,
)
from paftd.generator import draw_probability


def test_grid_dimensions():
    paf, _ = generate_grid(GridSpec(3, 5, 0))
    assert len(paf.af.arguments) == 15
    # at most one attack per direction per neighbor pair
    assert len(paf.af.attacks) <= 2 * (3 * 4 + 2 * 5)


def test_same_seed_is_byte_identical():
    a = generate_grid_document(GridSpec(3, 5, 7))
    b = generate_grid_document(GridSpec(3, 5, 7))
    assert a == b


def test_different_seeds_differ():
    assert generate_grid_document(GridSpec(3, 5, 7)) != generate_grid_document(
        GridSpec(3, 5, 8)
    )


def test_document_parses_back():
    doc = parse_paf(generate_grid_document(GridSpec(4, 4, 123)))
    paf, query = generate_grid(GridSpec(4, 4, 123))
    assert doc.paf == paf
    assert doc.query_set == query


def test_no_self_attacks_and_no_zero_probabilities():
    paf, _ = generate_grid(GridSpec(5, 5, 99))
    assert all(x != y for x, y in paf.af.attacks)
    assert all(p > 0 for p in paf.arg_prob.values())
    assert all(p > 0 for p in paf.att_prob.values())


def test_attacks_only_between_grid_neighbors():
    spec = GridSpec(4, 6, 5)
    paf, _ = generate_grid(spec)
    def coords(name):
        r, c = name[1:].split("_")
        return int(r), int(c)
    for x, y in paf.af.attacks:
        (r1, c1), (r2, c2) = coords(x), coords(y)
        assert abs(r1 - r2) + abs(c1 - c2) == 1


def test_treewidth_bounded_by_short_dimension():
    for rows, cols, seed in ((3, 10, 1), (2, 8, 2), (4, 4, 3), (10, 3, 1)):
        spec = GridSpec(rows, cols, seed)
        paf, _ = generate_grid(spec)
        td = decompose(paf.af, order=grid_elimination_order(spec))
        assert td.validate(paf.af) == []
        assert td.width() <= min(rows, cols)


def test_probability_distribution():
    rng = np.random.default_rng(0)
    draws = [draw_probability(rng) for _ in range(10_000)]
    freq_one = draws.count(Fraction(1)) / len(draws)
    assert abs(freq_one - 1 / 91) <= 0.01
    for k in range(1, 10):
        freq = draws.count(Fraction(k, 10)) / len(draws)
        assert abs(freq - 10 / 91) <= 0.01


def test_invalid_dimensions_rejected():
    with pytest.raises(InputError):
        GridSpec(0, 5, 1)


def test_names_are_zero_padded():
    paf, _ = generate_grid(GridSpec(3, 12, 0))
    assert "a1_01" in paf.af.arguments
    assert "a1_12" in paf.af.arguments
