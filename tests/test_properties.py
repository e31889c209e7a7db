"""Differential and metamorphic properties of the P-Ext DP and closed form.

Small PAFs (0-5 arguments; self-attacks, disconnected graphs and empty query
sets allowed) are checked against the scenario oracle and the extension
enumerator, and against laws any correct solver must obey: renaming,
disjoint unions and isolated certain arguments.  Acyclic PAFs of up to a
few hundred arguments, and generated grids of up to 160, beyond the oracle's
reach, check the DP against the adm and stb closed form.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from paftd import AF, PAF, GridSpec, extensions, generate_grid, grounded_extension, p_ext_oracle, solve
from paftd.solver import closed_form, three_state

from conftest import dense_paf

SEMANTICS = ("adm", "com", "stb")
MAX_UNCERTAIN = 8  # keeps the oracle at <= 256 scenarios

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150, database=None)

# tenths, and k/d over co-prime denominators, so that one DP table meets
# several of them; never 0, which PAF rejects
COPRIME_DENOMINATORS = (3, 7, 11, 13, 97)
probability = st.one_of(
    st.just(Fraction(1)),
    st.integers(1, 9).map(lambda k: Fraction(k, 10)),
    st.sampled_from(COPRIME_DENOMINATORS).flatmap(
        lambda d: st.integers(1, d - 1).map(lambda k: Fraction(k, d))
    ),
)


@st.composite
def pafs(draw, prefix="x", max_args=5):
    n = draw(st.integers(0, max_args))
    names = [f"{prefix}{i}" for i in range(n)]
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names)) if names else st.nothing()
    attacks = sorted(draw(st.sets(pairs, max_size=n * n)))
    arg_prob = {a: draw(probability) for a in names}
    att_prob = {r: draw(probability) for r in attacks}
    # make all but the first MAX_UNCERTAIN uncertain elements certain
    uncertain = [(arg_prob, a) for a in names if arg_prob[a] != 1]
    uncertain += [(att_prob, r) for r in attacks if att_prob[r] != 1]
    for table, key in uncertain[MAX_UNCERTAIN:]:
        table[key] = Fraction(1)
    paf = PAF(AF(names, attacks), arg_prob, att_prob)
    S = frozenset(a for a in names if draw(st.booleans()))
    return paf, S


@st.composite
def acyclic_pafs(draw, max_args=300, max_band=3):
    """An acyclic PAF without self-attacks and a query set.  Arguments
    ``x000, x001, ...`` in a line may attack those at most ``band`` places on,
    so the treewidth is at most ``band``; each attack runs from the earlier
    argument in a random topological order, or along the line for a chain.
    Probabilities are drawn like ``probability``'s, and the set is the
    grounded extension of the all-present framework (nonzero under com and
    stb) or a random one.  A seeded ``Random`` draws the details, which
    Hypothesis would draw too slowly and too simply at this size."""
    n = draw(st.integers(1, max_args))
    band = draw(st.integers(1, max_band))
    chain = draw(st.booleans())
    grounded = draw(st.booleans())
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))

    def p():
        d = rnd.choice((1, 10, rnd.choice(COPRIME_DENOMINATORS)))
        return Fraction(rnd.randint(1, d - 1), d) if d > 1 else Fraction(1)

    names = [f"x{i:03d}" for i in range(n)]
    topo = list(range(n)) if chain else rnd.sample(range(n), n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, min(i + band + 1, n))]
    kept = [(i, j) for i, j in pairs if chain and j == i + 1 or rnd.random() < 0.6]
    edges = [(i, j) if topo[i] < topo[j] else (j, i) for i, j in kept]
    attacks = [(names[i], names[j]) for i, j in edges]
    paf = PAF(AF(names, attacks), {a: p() for a in names}, {r: p() for r in attacks})
    if grounded:
        attackers: dict[int, list[int]] = {j: [] for j in range(n)}
        for i, j in edges:
            attackers[j].append(i)
        members: set[int] = set()
        for j in sorted(range(n), key=topo.__getitem__):  # attackers first
            if members.isdisjoint(attackers[j]):
                members.add(j)
        S = frozenset(names[j] for j in members)
    else:
        S = frozenset(a for a in names if rnd.random() < 0.4)
    return paf, S


def dp(paf, sigma, S, mode="rational"):
    return solve(paf, sigma, S, mode=mode).value


@PROPERTY
@given(pafs())
def test_dp_matches_oracle(case):
    paf, S = case
    for sigma in SEMANTICS:
        exact = p_ext_oracle(paf, sigma, S)
        assert dp(paf, sigma, S) == exact
        assert dp(paf, sigma, S, mode="float") == float(exact)


@PROPERTY
@given(pafs())
def test_certain_dp_matches_extension_enumeration(case):
    paf, S = case
    paf = PAF.certain(paf.af)
    for sigma in SEMANTICS:
        assert dp(paf, sigma, S) == (1 if S in extensions(paf.af, sigma) else 0)


@PROPERTY
@given(pafs())
def test_renaming_leaves_the_value_unchanged(case):
    paf, S = case
    args = paf.af.arguments
    # every argument moves to another canonical index: a cyclic shift of z-names
    new = {a: f"z{(i + 1) % len(args)}" for i, a in enumerate(args)}
    renamed = PAF(
        AF(new.values(), [(new[x], new[y]) for x, y in paf.af.attacks]),
        {new[a]: p for a, p in paf.arg_prob.items()},
        {(new[x], new[y]): p for (x, y), p in paf.att_prob.items()},
    )
    for sigma in SEMANTICS:
        assert dp(renamed, sigma, {new[a] for a in S}) == dp(paf, sigma, S)
        assert dp(renamed, sigma, {new[a] for a in S}, "float") == dp(paf, sigma, S, "float")


@PROPERTY
@given(pafs(prefix="x"), pafs(prefix="y"))
def test_disjoint_union_factorizes(left, right):
    (p1, S1), (p2, S2) = left, right
    union = PAF(
        AF(p1.af.arguments + p2.af.arguments, p1.af.attacks | p2.af.attacks),
        {**p1.arg_prob, **p2.arg_prob},
        {**p1.att_prob, **p2.att_prob},
    )
    for sigma in SEMANTICS:
        assert dp(union, sigma, S1 | S2) == dp(p1, sigma, S1) * dp(p2, sigma, S2)


@PROPERTY
@given(pafs())
def test_isolated_certain_argument_is_forced_in(case):
    paf, S = case
    iso = "iso"
    extended = PAF(
        AF(paf.af.arguments + (iso,), paf.af.attacks),
        {**paf.arg_prob, iso: Fraction(1)},
        paf.att_prob,
    )
    for sigma in SEMANTICS:
        value = dp(paf, sigma, S)
        assert dp(extended, sigma, S | {iso}) == value
        assert dp(extended, sigma, S) == (value if sigma == "adm" else 0)


@PROPERTY
@given(pafs())
def test_closed_form_matches_dp_and_oracle(case):
    paf, S = case
    for sigma in ("adm", "stb"):
        assert closed_form(paf, sigma, S) == dp(paf, sigma, S) == p_ext_oracle(paf, sigma, S)


@PROPERTY
@given(pafs())
def test_three_state_matches_dp_and_oracle(case):
    paf, S = case
    assert three_state(paf, S)[0] == dp(paf, "com", S) == p_ext_oracle(paf, "com", S)


@settings(PROPERTY, max_examples=100)
@given(acyclic_pafs())
def test_acyclic_dp_matches_the_closed_form(case):
    # an acyclic AF has one complete extension, and it is stable (Dung 1995);
    # every scenario of an acyclic AF is acyclic, so P-Ext(com) = P-Ext(stb)
    paf, S = case
    assert dp(paf, "com", S) == dp(paf, "stb", S) == closed_form(paf, "stb", S)
    assert dp(paf, "adm", S) == closed_form(paf, "adm", S)


@settings(PROPERTY, max_examples=40)
@given(st.builds(GridSpec, st.integers(1, 4), st.integers(1, 40), st.integers(0, 2**32 - 1)))
def test_grid_dp_matches_the_closed_form(spec):
    # grids have mutual attacks, which the acyclic property never draws
    paf, query = generate_grid(spec)
    certain = {a for a in paf.af.arguments if paf.arg_certain(a)}
    for S in (query, query | certain, grounded_extension(paf.af)):
        for sigma in ("adm", "stb"):
            assert dp(paf, sigma, S) == closed_form(paf, sigma, S), (spec, sorted(S), sigma)


@st.composite
def dense_pafs(draw, max_args=10):
    """A dense-generator instance with at most ``MAX_UNCERTAIN`` uncertain
    elements, so most attacks are certain, self-attacks among them, and
    every certain argument that S does not attack has N = 0; S is empty or
    a random set."""
    n = draw(st.integers(1, max_args))
    density = draw(st.sampled_from((0.1, 0.2, 0.3, 0.5)))
    paf = dense_paf(n, density, draw(st.integers(0, MAX_UNCERTAIN)), draw(st.integers(0, 2**32 - 1)))
    S = frozenset(a for a in paf.af.arguments if draw(st.booleans())) if draw(st.booleans()) else frozenset()
    return paf, S


@settings(PROPERTY, max_examples=200)
@given(dense_pafs())
def test_dense_three_state_matches_the_oracle(case):
    # dense instances reach the rows that the introduce leaves out: states
    # of weight 0 and rows a certain attack between bag mates kills
    paf, S = case
    assert three_state(paf, S)[0] == p_ext_oracle(paf, "com", S)


@settings(PROPERTY, max_examples=100)
@given(acyclic_pafs())
def test_acyclic_three_state_matches_the_dp(case):
    paf, S = case
    assert three_state(paf, S)[0] == dp(paf, "com", S)


@settings(PROPERTY, max_examples=40)
@given(st.builds(GridSpec, st.integers(1, 4), st.integers(1, 40), st.integers(0, 2**32 - 1)))
def test_grid_three_state_matches_the_dp(spec):
    # mutual attacks make cycles, where undecided arguments need the sum
    paf, query = generate_grid(spec)
    certain = {a for a in paf.af.arguments if paf.arg_certain(a)}
    for S in (query, query | certain, grounded_extension(paf.af), frozenset()):
        assert three_state(paf, S)[0] == dp(paf, "com", S), (spec, sorted(S))
