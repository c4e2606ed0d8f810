import itertools
from fractions import Fraction

import pytest

from rmlab import (
    CodeParams,
    FeasibilityError,
    FeasibilityLimits,
    Word,
    ball_count,
    delta,
    distance,
    enumerate_code,
    johnson_radius,
    list_in_ball,
    min_distance_bruteforce,
    min_distance_pairwise,
    monomial_basis,
    monomial_poly,
    sampled_max_list_size,
    tightness_family,
    tightness_family_size,
)
from rmlab.rmcode import codeword


class TestDelta:
    def test_formula_values(self):
        assert delta(2, 2) == Fraction(1, 4)
        assert delta(3, 3) == Fraction(2, 9)
        assert delta(5, 0) == 1
        assert delta(2, 1) == Fraction(1, 2)
        assert delta(3, 1) == Fraction(2, 3)

    def test_monotone_in_d(self):
        for p in (2, 3, 5):
            values = [delta(p, d) for d in range(12)]
            assert all(a >= b for a, b in zip(values, values[1:]))


class TestJohnson:
    def test_endpoints(self):
        assert johnson_radius(2, Fraction(0)) == 0
        assert johnson_radius(2, Fraction(1, 2)) == pytest.approx(0.5)

    def test_quarter(self):
        assert johnson_radius(2, Fraction(1, 4)) == pytest.approx(0.146446609, abs=1e-9)

    def test_monotone(self):
        values = [johnson_radius(3, Fraction(k, 30)) for k in range(0, 21)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            johnson_radius(2, Fraction(3, 4))


class TestEnumeration:
    @pytest.mark.parametrize(
        "p,n,d,count", [(2, 2, 1, 8), (2, 3, 2, 128), (3, 1, 2, 27)]
    )
    def test_counts(self, p, n, d, count):
        words = [w.values for _, w in enumerate_code(CodeParams(p, n, d))]
        assert len(words) == count
        assert len(set(words)) == count  # each codeword exactly once

    def test_polys_match_words(self):
        for poly, word in enumerate_code(CodeParams(3, 2, 2)):
            assert poly.classical_field_word().values == word.values

    def test_fixed_order(self):
        # coefficient vectors count lexicographically, constant term most
        # significant; basis is (1, x2, x1) for n=2, d=1
        words = [w for _, w in enumerate_code(CodeParams(2, 2, 1))]
        assert words[0].values == (0, 0, 0, 0)
        assert words[1].values == monomial_poly(2, 2, (1, 0)).classical_field_word().values
        assert words[2].values == monomial_poly(2, 2, (0, 1)).classical_field_word().values

    def test_feasibility_gate(self):
        with pytest.raises(FeasibilityError):
            list(enumerate_code(CodeParams(2, 4, 3), FeasibilityLimits(exhaustive_cap=100)))

    @pytest.mark.parametrize("p,n,d", [(2, 4, 2), (3, 2, 2)])
    def test_codeword_by_index_matches_enumeration(self, p, n, d):
        params = CodeParams(p, n, d)
        for i, (_, word) in enumerate(enumerate_code(params)):
            assert codeword(params, i) == word
        for index in (-1, params.codeword_count):
            with pytest.raises(ValueError, match=f"codeword index {index} out of range"):
                codeword(params, index)

    def test_codeword_by_index_checks_feasibility_first(self):
        with pytest.raises(FeasibilityError):
            codeword(CodeParams(2, 4, 3), -1, FeasibilityLimits(exhaustive_cap=100))


class TestDistance:
    def test_examples(self):
        u = monomial_poly(2, 2, (1, 0)).classical_field_word()
        v = monomial_poly(2, 2, (0, 1)).classical_field_word()
        assert distance(u, u) == 0
        assert distance(u, v) == Fraction(1, 2)
        shifted = Word.field_word(2, 2, [(x + 1) % 2 for x in u.values])
        assert distance(u, shifted) == 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            distance(Word.field_word(2, 1, [0, 1]), Word.field_word(3, 1, [0, 1, 2]))


MIN_DISTANCE_CASES = [
    (2, 3, 1),
    (2, 4, 1),
    (2, 4, 2),
    (2, 4, 3),
    (3, 2, 1),
    (3, 3, 2),
    (3, 2, 2),
    (5, 2, 1),
]


class TestMinDistance:
    @pytest.mark.parametrize("p,n,d", MIN_DISTANCE_CASES)
    def test_matches_formula(self, p, n, d):
        assert min_distance_bruteforce(CodeParams(p, n, d)) == delta(p, d)

    @pytest.mark.parametrize("p,n,d", [(2, 2, 1), (3, 1, 1), (2, 3, 1)])
    def test_pairwise_fallback_agrees(self, p, n, d):
        params = CodeParams(p, n, d)
        assert min_distance_pairwise(params) == min_distance_bruteforce(params)


class TestListInBall:
    def test_codeword_center_unique_inside_half_distance(self):
        params = CodeParams(2, 3, 1)
        eta = delta(2, 1) / 2 - Fraction(1, 16)
        for idx, (_, word) in enumerate(enumerate_code(params)):
            res = list_in_ball(params, word, eta)
            assert res.count == 1

    def test_full_radius_gets_everything(self):
        params = CodeParams(2, 2, 1)
        g = Word.zeros(2, 2)
        assert list_in_ball(params, g, Fraction(1)).count == params.codeword_count

    def test_majority_against_fresh_oracle(self):
        # independent oracle: direct loops over affine coefficients
        params = CodeParams(2, 3, 1)
        maj = Word.field_word(
            2, 3, [1 if bin(i).count("1") >= 2 else 0 for i in range(8)]
        )
        oracle = 0
        pts = list(itertools.product(range(2), repeat=3))
        for c0, c1, c2, c3 in itertools.product(range(2), repeat=4):
            bad = sum(
                1
                for i, (x1, x2, x3) in enumerate(pts)
                if (c0 + c1 * x1 + c2 * x2 + c3 * x3) % 2 != maj.values[i]
            )
            if Fraction(bad, 8) <= Fraction(3, 8):
                oracle += 1
        res = list_in_ball(params, maj, Fraction(3, 8))
        assert res.count == oracle == 4
        # every member is genuinely inside the ball
        for poly in res.members:
            assert distance(poly.classical_field_word(), maj) <= Fraction(3, 8)

    def test_monotone_in_radius(self, rng):
        params = CodeParams(2, 3, 1)
        from rmlab import random_field_word

        g = random_field_word(2, 3, rng)
        counts = [
            ball_count(params, g, Fraction(k, 8)) for k in range(9)
        ]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_json_schema(self):
        import json

        params = CodeParams(2, 2, 1)
        res = list_in_ball(params, Word.zeros(2, 2), Fraction(1, 4))
        payload = json.loads(res.to_json())
        assert payload["p"] == 2 and payload["n"] == 2 and payload["d"] == 1
        assert payload["eta"] == "1/4"
        assert payload["count"] == len(payload["members"])


class TestSampledMaxList:
    def test_unique_decoding_radius(self):
        params = CodeParams(2, 3, 1)
        eta = delta(2, 1) / 2 - Fraction(1, 16)
        res = sampled_max_list_size(params, eta, 0, 0, include_codeword_centers=True)
        assert res.count == 1

    def test_negative_samples_rejected(self):
        params = CodeParams(2, 3, 1)
        with pytest.raises(ValueError, match="samples must be >= 0"):
            sampled_max_list_size(params, Fraction(1, 4), -2, 0, include_codeword_centers=True)

    def test_reproducible(self):
        params = CodeParams(2, 3, 1)
        a = sampled_max_list_size(params, Fraction(3, 8), 100, seed=7)
        b = sampled_max_list_size(params, Fraction(3, 8), 100, seed=7)
        assert a == b

    def test_codeword_centers_only_flag(self):
        params = CodeParams(2, 2, 1)
        res = sampled_max_list_size(
            params, Fraction(1), 0, 0, include_codeword_centers=True
        )
        assert res.count == params.codeword_count
        assert res.label == "codeword:0"


class TestTightnessFamily:
    def test_p2_acceptance_case(self):
        members = list(tightness_family(2, 2, 1, 5))
        assert len(members) == tightness_family_size(2, 2, 1, 5) == 16
        zero = Word.zeros(2, 5)
        target = delta(2, 1) * Fraction(1, 2)
        tables = set()
        for poly in members:
            word = poly.classical_field_word()
            tables.add(word.values)
            assert distance(word, zero) == target
            assert poly.degree() <= 2
        assert len(tables) == 16

    def test_p3_acceptance_case(self):
        members = list(tightness_family(3, 3, 2, 4))
        assert len(members) == tightness_family_size(3, 3, 2, 4) == 9
        zero = Word.zeros(3, 4)
        target = delta(3, 2) * Fraction(2, 3)
        for poly in members:
            assert distance(poly.classical_field_word(), zero) == target

    @pytest.mark.parametrize("d, e", [(1, 1), (2, 2), (1, 2)])
    def test_e_not_below_d_rejected(self, d, e):
        # with Q constant the members have degree e + 1 > d: not codewords
        with pytest.raises(ValueError, match="need 0 <= e < d"):
            list(tightness_family(2, d, e, 3))
        with pytest.raises(ValueError, match="need 0 <= e < d"):
            tightness_family_size(2, d, e, 3)

    def test_members_inside_ball_around_zero(self):
        # family members lie in the stated ball around the zero word
        zero = Word.zeros(3, 4)
        radius = delta(3, 2) * Fraction(2, 3)
        for poly in tightness_family(3, 3, 2, 4):
            assert distance(poly.classical_field_word(), zero) <= radius

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            list(tightness_family(3, 3, 2, 2))


def test_monomial_basis_order():
    basis = monomial_basis(2, 2, 2)
    assert basis == ((0, 0), (0, 1), (1, 0), (1, 1))
