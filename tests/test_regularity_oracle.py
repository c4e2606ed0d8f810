"""Differential tests: the integer-array regularity and rank code against
the Fraction and dict oracles in ``oracles.py``."""

import functools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from rmlab import (
    CodeParams,
    Factor,
    SimplexFunction,
    Word,
    agreement_prob,
    atom_uniformity,
    energy,
    enumerate_code,
    one_sided_regularize,
    random_canonical_poly,
    rank_bruteforce,
    weak_regularize,
)
from rmlab import regularity
from rmlab.regularity import degree_candidates
from rmlab.rmcode import codeword_blocks

SHAPES = [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 5)] + [(5, 1), (5, 2)]  # p^n <= 81
EPS = [Fraction(1, 20), Fraction(1, 10), Fraction(1, 8), Fraction(1, 5), Fraction(1, 4),
       Fraction(1, 3), Fraction(2, 5), Fraction(1)]


def simplex_rows(p, size, deterministic, rng):
    """``size`` simplex rows: one-hot, or weights 0..3 over their sum."""
    rows = []
    for _ in range(size):
        weights = [0] * p
        if deterministic:
            weights[rng.randrange(p)] = 1
        while not any(weights):
            weights = [rng.randrange(4) for _ in range(p)]
        rows.append(tuple(Fraction(w, sum(weights)) for w in weights))
    return tuple(rows)


@functools.lru_cache(maxsize=None)
def degree_one_tables(p, n):
    return np.concatenate([t for _, _, t in codeword_blocks(CodeParams(p, n, 1))]).tolist()


@st.composite
def decomposition_inputs(draw):
    """eps, a family of degree-1 codewords (as one-hot rows) then random
    members, deterministic or mixed, and a g that mostly copies member j
    at x, with j picked by the first two members' values at x: the loop
    then keeps finding members that the current atoms do not explain."""
    p, n = draw(st.sampled_from(SHAPES))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    tables = degree_one_tables(p, n)
    picked = rng.sample(tables, min(len(tables), draw(st.integers(0, 6))))
    family = [SimplexFunction.from_field_word(Word.field_word(p, n, row)) for row in picked]
    mixed = draw(st.booleans())
    family += [
        SimplexFunction(p, simplex_rows(p, p**n, not mixed or rng.random() < 0.5, rng))
        for _ in range(draw(st.integers(0 if family else 1, 3)))
    ]
    noise = simplex_rows(p, p**n, draw(st.booleans()), rng)
    rows = []
    for x in range(p**n):
        j = sum(f.table[x].index(max(f.table[x])) * p**i for i, f in enumerate(family[:2]))
        rows.append(family[j % len(family)].table[x] if rng.random() < 0.8 else noise[x])
    return SimplexFunction(p, tuple(rows)), family, draw(st.sampled_from(EPS))


def assert_same_decomposition(fast, slow):
    assert fast.chosen == slow.chosen
    assert fast.trace == slow.trace
    assert fast.gamma == slow.gamma
    assert fast.proxy == slow.proxy
    assert fast.to_json() == slow.to_json()


@settings(derandomize=True, max_examples=30, deadline=None)
@given(decomposition_inputs())
def test_weak_regularize_matches_fraction_oracle(inputs):
    g, family, eps = inputs
    assert energy(g) == oracles.energy(g)
    assert [agreement_prob(g, f) for f in family] == [oracles.agreement_prob(g, f) for f in family]
    slow = oracles.weak_regularize(g, family, eps)
    assert_same_decomposition(weak_regularize(g, family, eps), slow)
    if all(max(row) == 1 for f in family for row in f.table):  # the letter-table form
        letters = np.array([[row.index(1) for row in f.table] for f in family])
        assert_same_decomposition(weak_regularize(g, letters, eps), slow)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.sampled_from(SHAPES), st.integers(0, 2**32 - 1), st.integers(1, 8), st.sampled_from(EPS))
def test_one_sided_matches_oracle(shape, seed, members, eps):
    p, n = shape
    rng = random.Random(seed)
    family = [Word.field_word(p, n, rng.choices(range(p), k=p**n)) for _ in range(members)]
    # g mostly copies member j at x, j picked by the first two members there
    picks = [sum(f.values[x] * p**i for i, f in enumerate(family[:2])) % members for x in range(p**n)]
    g = Word.field_word(p, n, [
        family[j].values[x] if rng.random() < 0.8 else rng.randrange(p) for x, j in enumerate(picks)
    ])
    chosen, composed = oracles.one_sided_composed(g, family, eps)
    result = one_sided_regularize(g, family, eps)
    assert result.chosen == chosen
    assert [result.composed_word(i).values for i in range(len(family))] == composed


def _record_dtypes(monkeypatch):
    """Record whether each ``_dtype`` decision chose Python integers."""
    seen = []
    real = regularity._dtype

    def recording(bound):
        seen.append(real(bound) is object)
        return real(bound)

    monkeypatch.setattr(regularity, "_dtype", recording)
    return seen


def test_python_int_path_matches_oracle(monkeypatch):
    # weights over 2^40 and 3^30: N * L * D passes 2^63 - 1 from the first round
    rng = random.Random(7)
    rows = []
    for _ in range(9):
        a = Fraction(rng.randrange(2**40), 2**40)
        b = Fraction(rng.randrange(3**30), 3**30) * (1 - a)
        rows.append((a, b, 1 - a - b))
    g = SimplexFunction(3, tuple(rows))
    family = [SimplexFunction.from_field_word(w) for _, w in enumerate_code(CodeParams(3, 2, 1))]
    seen = _record_dtypes(monkeypatch)
    fast = weak_regularize(g, family, Fraction(1, 10))
    assert seen and all(seen)
    assert fast.chosen
    assert_same_decomposition(fast, oracles.weak_regularize(g, family, Fraction(1, 10)))


def test_deterministic_rm_3_3_2_family_stays_on_int64(monkeypatch):
    params = CodeParams(3, 3, 2)
    family = np.concatenate([t for _, _, t in codeword_blocks(params)])
    assert family.shape == (59049, 27)
    word = Word.field_word(3, 3, random.Random(3).choices(range(3), k=27))
    g = SimplexFunction.from_field_word(word)
    seen = _record_dtypes(monkeypatch)
    result = weak_regularize(g, family, Fraction(1, 4))
    assert seen and not any(seen)
    assert 0 < len(result.chosen) <= 16


@pytest.mark.parametrize("p, n, dmax", [(2, 4, 2), (2, 4, 1), (3, 3, 1), (3, 2, 2), (5, 2, 1)])
def test_degree_candidates_match_oracle(p, n, dmax):
    # the rank tests compare the polynomials built from these coefficients
    fast = degree_candidates(p, n, dmax)
    monomials, slow = oracles.degree_candidates(p, n, dmax)
    assert fast.monomials == tuple(monomials)
    assert fast.coeffs.tolist() == [list(coeffs) for coeffs, _ in slow]
    assert [oracles.partition_signature(r) for r in fast.labels.tolist()] == [s for _, s in slow]


def _seeded_words():
    rng = random.Random(11)
    for p, n, depth in [(2, 3, 0), (2, 3, 1), (2, 4, 0), (3, 2, 0), (3, 2, 1), (5, 2, 0)]:
        for _ in range(3):
            yield random_canonical_poly(p, n, depth, rng).to_word()


@pytest.mark.parametrize("d, budget", [(1, 2), (2, 2), (3, 1)])
def test_rank_matches_oracle(d, budget):
    for word in _seeded_words():
        if d < 3 or word.length == 8:  # d = 3 on F_2^3 only: 2^10 combinations per search
            assert rank_bruteforce(word, d, budget) == oracles.rank_bruteforce(word, d, budget)


def test_factor_atoms_and_uniformity_match_oracle():
    rng = random.Random(9)
    for p, n in [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]:
        for _ in range(4):
            polys = [random_canonical_poly(p, n, rng.randint(0, 1), rng) for _ in range(rng.choice([1, 2]))]
            polys.append(rng.choice(polys))  # a repeated definer leaves nominal atoms empty
            factor, coarse = Factor.from_polys(polys), Factor.from_polys(polys[:1])
            assert factor.atoms() == oracles.atoms(factor)
            assert list(factor.atoms()) == list(oracles.atoms(factor))
            assert atom_uniformity(factor) == oracles.atom_uniformity(factor)
            assert factor.refines(coarse) == oracles.refines(factor, coarse)
            assert coarse.refines(factor) == oracles.refines(coarse, factor)
    trivial = Factor.trivial(2, 3)
    assert atom_uniformity(trivial) == oracles.atom_uniformity(trivial) == (0, ())
