import itertools
import json
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from rmlab import rmcode
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
    monomial_basis,
    monomial_poly,
    random_field_word,
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
        assert oracles.min_distance_pairwise(params) == min_distance_bruteforce(params)


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


# Every RM_p(n, d) with p in {2, 3, 5, 7}, p^n <= 81 and at most 729 codewords.
SMALL_CODES = [
    (p, n, d)
    for p in (2, 3, 5, 7)
    for n in range(1, 7)
    if p**n <= 81
    for d in range(n * (p - 1) + 1)
    if CodeParams(p, n, d).codeword_count <= 729
]


def _cosets(params):
    """Coset representatives per affine part: p^(#basis monomials of degree >= 2)."""
    return max(1, params.codeword_count // (params.p * params.block_length))


@st.composite
def ball_queries(draw, max_codewords=729):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    p, n, d = draw(st.sampled_from([
        c for c in SMALL_CODES if c[0] == p and CodeParams(*c).codeword_count <= max_codewords
    ]))
    length = p**n
    # a grid value k/p^n, or a value just below or above one
    k = draw(st.integers(0, length))
    nudge = draw(st.sampled_from([0, -1, 1]))
    eta = Fraction(k, length) + Fraction(nudge, length * 10**20)
    # budgets in rows of p * p^n counts: one chunk; one row per chunk; a 1/p share of a
    # center's cosets per chunk (a chunk boundary inside its cosets); two centers per chunk
    params = CodeParams(p, n, d)
    row, cosets = p * length, _cosets(params)
    budget = draw(st.sampled_from([rmcode._HIT_BUDGET, 1, row * max(1, cosets // p), row * 2 * cosets + row - 1]))
    return params, eta, budget


class TestBallKernel:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(query=ball_queries(), data=st.data())
    def test_ball_searches_match_pointwise_recount(self, query, data):
        params, eta, budget = query
        g = Word.field_word(
            params.p, params.n,
            data.draw(st.lists(st.integers(0, params.p - 1), min_size=params.block_length,
                               max_size=params.block_length)),
        )
        expect = oracles.ball_members(params, g, eta)
        with mock.patch.object(rmcode, "_HIT_BUDGET", budget):
            count = ball_count(params, g, eta)
            res = list_in_ball(params, g, eta)
        assert count == res.count == len(expect)
        assert res.indices.dtype == np.int64
        assert [poly.to_text() for poly in res.members] == expect

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        query=ball_queries(max_codewords=81),
        samples=st.integers(0, 4),
        seed=st.integers(0, 2**16),
        codeword_centers=st.booleans(),
    )
    def test_sampled_max_matches_pointwise_recount(self, query, samples, seed, codeword_centers):
        params, eta, budget = query
        if not samples and not codeword_centers:
            codeword_centers = True
        count, label, center = oracles.sampled_max_list_size(params, eta, samples, seed, codeword_centers)
        with mock.patch.object(rmcode, "_HIT_BUDGET", budget):
            res = sampled_max_list_size(params, eta, samples, seed, include_codeword_centers=codeword_centers)
        assert (res.count, res.label, res.center) == (count, label, center)

    def test_centers_past_the_chunk_budget(self):
        # 200 centers x 2 x 512 counts per row: under a budget of 32 rows, chunks of 32 centers
        params = CodeParams(2, 9, 1)
        eta = Fraction(7, 16)
        rng = random.Random(0)
        words = [random_field_word(2, 9, rng) for _ in range(200)]
        each = [ball_count(params, g, eta) for g in words]
        with mock.patch.object(rmcode, "_HIT_BUDGET", 32 * 2 * params.block_length):
            assert rmcode._ball_counts(params, words, eta).tolist() == each
            res = sampled_max_list_size(params, eta, 200, seed=0)
        best = each.index(max(each))
        assert (res.count, res.label, res.center) == (max(each), f"sample:{best}", words[best])

    @pytest.mark.parametrize("code, budget", [((2, 5, 2), 2 * 32 * 300), ((3, 3, 2), 3 * 27 * 100), ((5, 2, 0), 25)])
    def test_chunks_stay_within_the_budget(self, code, budget):
        # each chunk's slopes x p^n x rows counts (p slopes, or 1 at d = 0) fit the budget,
        # and the rows add up to centers x cosets
        params = CodeParams(*code)
        words = [random_field_word(params.p, params.n, random.Random(i)) for i in range(3)]
        each = [ball_count(params, g, Fraction(1, 3)) for g in words]
        shapes = []
        transform = rmcode._affine_agreements

        def recorded(h, p, slopes, dtype):
            shapes.append((slopes, *h.shape))
            return transform(h, p, slopes, dtype)

        with mock.patch.object(rmcode, "_HIT_BUDGET", budget), \
                mock.patch.object(rmcode, "_affine_agreements", recorded):
            assert rmcode._ball_counts(params, words, Fraction(1, 3)).tolist() == each
        assert all(slopes * length * rows <= budget for slopes, length, rows in shapes)
        assert sum(rows for _, _, rows in shapes) == 3 * _cosets(params) and len(shapes) > 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("slopes", ["all", "zero"])
    def test_affine_agreements_match_every_affine_function(self, p, slopes):
        # out[b, a, r] against b + a.x evaluated point by point, a read as digits (a_n, ..., a_1);
        # with one slope, a = 0 alone
        n = 3 if p < 5 else 2
        rng = np.random.default_rng(p)
        h = rng.integers(0, p, size=(p**n, 3)).astype(np.uint8)
        digits = p if slopes == "all" else 1
        out = rmcode._affine_agreements(h, p, digits, np.uint16)
        assert out.shape == (p, digits**n, 3)
        points = list(itertools.product(range(p), repeat=n))  # x_1 most significant
        for b in range(p):
            for k, a_rev in enumerate(itertools.product(range(digits), repeat=n)):
                affine = [(b + sum(ai * xi for ai, xi in zip(a_rev[::-1], x))) % p for x in points]
                assert out[b, k].tolist() == [int((h[:, r] == affine).sum()) for r in range(3)]

    @pytest.mark.parametrize("p, n", [(2, 14), (2, 16), (3, 9)])
    def test_first_order_closed_form_past_brute_force(self, p, n):
        # every nonconstant affine function has weight (1 - 1/p) p^n and the nonzero constants
        # p^n, so at radius 1 - 1/p the zero word's ball holds p^(n+1) - p + 1 codewords and just
        # below it only zero; p^n = 2^16 counts in uint32
        params = CodeParams(p, n, 1)
        zero = Word.zeros(p, n)
        radius = 1 - Fraction(1, p)
        assert ball_count(params, zero, radius) == p ** (n + 1) - p + 1
        assert ball_count(params, zero, radius - Fraction(1, 10**30)) == 1

    @pytest.mark.parametrize("p, n", [(2, 3), (2, 4), (3, 2), (5, 1), (7, 1)])
    def test_full_code_balls_are_hamming_balls(self, p, n):
        # at d = n(p-1) every word is a codeword: a ball of radius k/p^n holds
        # sum_{j <= k} C(p^n, j) (p-1)^j codewords, whatever the center
        params = CodeParams(p, n, n * (p - 1))
        length = params.block_length
        g = random_field_word(p, n, random.Random(p + n))
        table = rmcode._basis_matrix(params)
        for k in range(length + 1):
            eta = Fraction(k, length)
            expect = sum(math.comb(length, j) * (p - 1) ** j for j in range(k + 1))
            res = list_in_ball(params, g, eta)
            assert ball_count(params, g, eta) == res.count == expect
            assert np.all(np.diff(res.indices) > 0)
            members = rmcode._coeff_rows(params, res.indices) @ table % p
            assert np.all((members != np.array(g.values)).sum(axis=1) <= k)

    @pytest.mark.parametrize("center", [
        Word.torus_word(2, 3, 1, [0, 1, 1, 0, 1, 0, 0, 1]),
        Word.field_word(3, 2, range(9)),
        Word.field_word(2, 2, [0, 1, 1, 0]),
    ], ids=["torus", "other-prime", "other-n"])
    def test_center_must_be_field_word_on_the_domain(self, center):
        params = CodeParams(2, 3, 1)
        for search in (ball_count, list_in_ball):
            with pytest.raises(ValueError, match="center must be a field word on the code's domain"):
                search(params, center, Fraction(1, 2))

    def test_members_built_only_when_read(self):
        params = CodeParams(2, 3, 1)
        res = list_in_ball(params, Word.zeros(2, 3), Fraction(1, 2))
        assert "members" not in vars(res)
        assert res.count == 15 and res.indices.tolist() == sorted(res.indices.tolist())
        assert res.members is res.members


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


# Codes over the primes the dense kernels are tested on, p^n within the
# default table cap, small enough to list every codeword's table.
STREAM_PRIMES = (2, 3, 5, 7, 17, 19)
STREAM_CODES = {
    p: [
        (p, n, d)
        for n in range(1, 7)
        if p**n <= 10**6
        for d in range(min(n * (p - 1), 6) + 1)
        if CodeParams(p, n, d).codeword_count * p**n <= 1 << 18
    ]
    for p in STREAM_PRIMES
}


class TestCodewordStream:
    @pytest.mark.parametrize("p", STREAM_PRIMES)
    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(data=st.data())
    def test_blocks_match_coefficient_rows_and_matmul(self, p, data):
        params = CodeParams(*data.draw(st.sampled_from(STREAM_CODES[p])))
        m, count, length = params.num_monomials, params.codeword_count, params.block_length
        half = p ** (m // 2)
        # (block_size, _HIT_BUDGET, blocks): p^L = 1; a middle split set by the
        # block size and by the budget; the whole code in one block
        block_size, budget, expect_blocks = data.draw(st.sampled_from([
            (1, rmcode._HIT_BUDGET, count),
            (4096, 1, count),
            (half, rmcode._HIT_BUDGET, count // half),
            (4096, half * length + length - 1, count // half),
            (count, count * length, 1),
        ]))
        with mock.patch.object(rmcode, "_HIT_BUDGET", budget):
            blocks = list(rmcode.codeword_blocks(params, block_size=block_size))
        coeffs = rmcode._coeff_rows(params, np.arange(count, dtype=np.int64))
        tables = coeffs @ rmcode._basis_matrix(params) % p
        assert len(blocks) == expect_blocks
        start = 0
        for first, block_coeffs, block_tables in blocks:
            assert first == start
            stop = start + len(block_coeffs)
            assert np.array_equal(block_coeffs, coeffs[start:stop])
            assert np.array_equal(block_tables, tables[start:stop])
            assert block_tables.dtype == np.min_scalar_type(2 * (p - 1))
            start = stop
        assert start == count

    @pytest.mark.parametrize("p", STREAM_PRIMES)
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(data=st.data())
    def test_member_json_matches_polynomial_text(self, p, data):
        params = CodeParams(*data.draw(st.sampled_from(STREAM_CODES[p])))
        last = params.codeword_count - 1
        picked = data.draw(st.sets(st.integers(0, last), max_size=40)) | {0, last}
        idx = np.array(sorted(picked), dtype=np.int64)
        result = rmcode.ListResult(params, Word.zeros(p, params.n), Fraction(1), idx)
        rows = rmcode._coeff_rows(params, idx)
        expect = [rmcode.poly_from_coeff_row(params, row).to_text() for row in rows]
        assert json.loads(result.to_json())["members"] == expect


class TestTightnessWeights:
    @pytest.mark.parametrize("case", [
        (2, 3, 1, 6), (3, 3, 2, 4), (2, 2, 0, 5), (3, 2, 1, 3), (5, 2, 1, 2), (2, 3, 2, 4), (3, 4, 1, 3),
    ])
    def test_match_member_tables(self, case):
        expect = [sum(1 for v in poly.classical_field_word().values if v) for poly in tightness_family(*case)]
        for budget in (rmcode._HIT_BUDGET, 1):  # the Q code in one block, then one codeword per block
            with mock.patch.object(rmcode, "_HIT_BUDGET", budget):
                assert rmcode.tightness_weights(*case).tolist() == expect

    @pytest.mark.parametrize("case, limits, error, match", [
        ((2, 1, 1, 3), None, ValueError, "need 0 <= e < d"),
        ((3, 3, 2, 2), None, ValueError, "need n >= 3"),
        ((2, 3, 1, 6), FeasibilityLimits(exhaustive_cap=100), FeasibilityError, "tightness family"),
    ])
    def test_checks_as_the_family(self, case, limits, error, match):
        with pytest.raises(error, match=match):
            rmcode.tightness_weights(*case, limits)
        with pytest.raises(error, match=match):
            list(tightness_family(*case, limits))
