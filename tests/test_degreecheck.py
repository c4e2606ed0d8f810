import random
import sys
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from rmlab import (
    FeasibilityLimits,
    FeasibilityError,
    Word,
    iota_word,
    monomial_poly,
    random_canonical_poly,
    verify_degree_by_derivatives,
    zero_poly,
)
from rmlab.degreecheck import _basis_walk
from rmlab.words import point_to_index

from oracles import apply_derivative_chain, derivative_table


def test_derivative_examples():
    f = monomial_poly(2, 2, (1, 1))  # x1 x2
    d = derivative_table(f.to_word(), (1, 0))
    assert d.values == monomial_poly(2, 2, (0, 1)).to_word().values
    assert derivative_table(f.to_word(), (0, 0)).values == (0, 0, 0, 0)
    deep = monomial_poly(2, 1, (1,), k=1).to_word()
    dd = derivative_table(deep, (1,))
    assert [str(dd.torus_value(i)) for i in range(2)] == ["1/4", "3/4"]


def test_derivative_dimension_mismatch():
    with pytest.raises(ValueError):
        derivative_table(monomial_poly(2, 2, (1, 1)).to_word(), (1,))


def test_deep_monomial_degree_two():
    w = monomial_poly(2, 1, (1,), k=1).to_word()
    assert verify_degree_by_derivatives(w, 2).ok
    res = verify_degree_by_derivatives(w, 1)
    assert not res.ok
    # the witness re-verifies through the public derivative operation
    chain = apply_derivative_chain(w, res.witness.directions)
    value = chain.torus_value(
        sum(x * 2 ** (len(res.witness.point) - 1 - i) for i, x in enumerate(res.witness.point))
    )
    assert value == res.witness.value and not value.is_zero()


def test_constant_degree_zero():
    w = Word.torus_word(3, 1, 0, [2, 2, 2])
    assert verify_degree_by_derivatives(w, 0).ok


def test_zero_table():
    w = zero_poly(2, 2).to_word()
    assert verify_degree_by_derivatives(w, 0).ok


def test_sampled_mode_deterministic_and_finds_witness():
    w = monomial_poly(2, 3, (1, 1, 1)).to_word()  # degree 3
    a = verify_degree_by_derivatives(w, 2)
    b = verify_degree_by_derivatives(w, 2)
    assert a == b
    assert not a.ok
    chain = apply_derivative_chain(w, a.witness.directions)
    assert chain.value_at_point(a.witness.point) != 0
    assert verify_degree_by_derivatives(w, 3).ok


def test_exhaustive_feasibility_gate():
    w = monomial_poly(2, 3, (1, 1, 1)).to_word()
    tiny = FeasibilityLimits(table_cap=10**6, exhaustive_cap=10)
    # C(3+4, 4) = 35 basis chains exceed the cap of 10
    with pytest.raises(FeasibilityError):
        verify_degree_by_derivatives(w, 3, limits=tiny)


def test_degree_law_random(rng):
    for _ in range(40):
        p = rng.choice([2, 3])
        n = rng.randint(1, 2)
        poly = random_canonical_poly(p, n, 2, rng)
        d = poly.degree()
        w = poly.to_word()
        assert verify_degree_by_derivatives(w, d).ok, poly
        if d >= 1 and (p**n) ** d <= 10**7:
            assert not verify_degree_by_derivatives(w, d - 1).ok, poly


def test_field_word_needs_embedding():
    w = monomial_poly(2, 1, (1,)).classical_field_word()
    with pytest.raises(ValueError):
        verify_degree_by_derivatives(w, 1)
    assert verify_degree_by_derivatives(iota_word(w), 1).ok


def test_derivatives_of_classical_drop_degree(rng):
    # every direction's derivative of a classical degree-d polynomial fits
    # as a polynomial of degree <= d-1
    from itertools import product

    from rmlab import canonical_fit

    for _ in range(15):
        p = rng.choice([2, 3])
        n = rng.randint(1, 2)
        poly = random_canonical_poly(p, n, 0, rng)
        d = poly.degree()
        if d < 1:
            continue
        word = poly.to_word()
        for a in product(range(p), repeat=n):
            fitted = canonical_fit(derivative_table(word, a), 0)
            assert fitted.degree() <= d - 1


# --- the basis walk against a brute-force scan of every direction tuple ---

# (p, n, d) shapes whose p^{n(d+1)} tuples the brute-force oracle can scan
SHAPES = [
    (p, n, d)
    for p in (2, 3, 5)
    for n in (1, 2, 3)
    for d in range(10)
    if (p**n) ** (d + 1) <= 1024
]


def oracle_degree_at_most(word, d):
    """Every (d+1)-fold derivative over all p^{n(d+1)} ordered direction
    tuples, through the slow reference path."""
    p, n = word.prime, word.nvars
    directions = list(product(range(p), repeat=n))
    return all(
        not any(apply_derivative_chain(word, chain).values)
        for chain in product(directions, repeat=d + 1)
    )


def assert_basis_witness(word, d, witness):
    n = word.nvars
    assert len(witness.directions) == d + 1
    assert all(sorted(a) == [0] * (n - 1) + [1] for a in witness.directions)
    idx = point_to_index(word.prime, witness.point)
    value = apply_derivative_chain(word, witness.directions).torus_value(idx)
    assert value == witness.value and not value.is_zero()


@st.composite
def tables_and_bounds(draw):
    p, n, d = draw(st.sampled_from(SHAPES))
    depth = draw(st.integers(0, 2))
    if draw(st.booleans()):
        poly = random_canonical_poly(p, n, depth, random.Random(draw(st.integers(0, 2**32))))
        word = poly.to_word()
    else:
        m = p ** (depth + 1)
        values = draw(st.lists(st.integers(0, m - 1), min_size=p**n, max_size=p**n))
        word = Word.torus_word(p, n, depth, values)
    return word, d


@settings(derandomize=True, max_examples=200, deadline=None)
@given(tables_and_bounds())
def test_basis_walk_matches_tuple_oracle(case):
    word, d = case
    witness, tables = _basis_walk(word, d)
    assert (witness is None) == oracle_degree_at_most(word, d)
    assert 0 < tables < comb(word.nvars + d + 1, d + 1)
    if witness is not None:
        assert_basis_witness(word, d, witness)
    res = verify_degree_by_derivatives(word, d)
    assert (res.ok, res.witness, res.tables) == (witness is None, witness, tables)


# --- the "sampled" label: nominal tuples past the cap, the exact walk anyway ---


def test_sampled_mode_walks_within_budget():
    w = monomial_poly(3, 3, (2, 2, 1)).to_word()  # degree 5
    res = verify_degree_by_derivatives(w, 4)
    assert (res.ok, res.mode, res.cases) == (False, "sampled", 27**5)
    assert res.tables < comb(3 + 5, 5)
    assert_basis_witness(w, 4, res.witness)
    assert verify_degree_by_derivatives(w, 5).ok


def test_sampled_mode_gives_exact_basis_witness():
    w = monomial_poly(2, 6, (1,) * 6).to_word()  # degree 6
    # 64^6 nominal tuples exceed the cap; the C(12, 6) = 924 chains fit it
    res = verify_degree_by_derivatives(w, 5)
    assert (res.ok, res.mode, res.cases) == (False, "sampled", 64**6)
    assert res.tables < comb(6 + 6, 6)
    assert_basis_witness(w, 5, res.witness)
    assert verify_degree_by_derivatives(w, 6).ok


def test_basis_walk_deeper_than_recursion_limit():
    p = 1009
    w = monomial_poly(p, 1, (p - 1,)).to_word()  # degree 1008
    assert sys.getrecursionlimit() < p
    res = verify_degree_by_derivatives(w, p - 2)
    assert not res.ok and res.tables == p - 1
    assert verify_degree_by_derivatives(w, p - 1).ok
