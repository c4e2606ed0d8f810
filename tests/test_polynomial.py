import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from rmlab import (
    CodeParams,
    Monomial,
    NonclassicalPoly,
    NotAPolynomialError,
    TorusValue,
    Word,
    canonical_fit,
    classical_from_coeffs,
    interpolate_classical,
    monomial_poly,
    mul_classical,
    multilinearize,
    random_canonical_poly,
    symmetric_poly,
    zero_poly,
)
from rmlab.cli import main
from rmlab.rmcode import _basis_matrix
from rmlab.words import point_to_index
from conftest import all_points, brute_force_eval


class TestEvaluate:
    def test_product_monomial(self):
        f = monomial_poly(2, 2, (1, 1))
        assert f.evaluate((1, 1)) == TorusValue(2, 1, 0)
        assert f.evaluate((1, 0)).is_zero()

    def test_deep_monomial(self):
        f = monomial_poly(2, 1, (1,), k=1)
        assert f.evaluate((1,)) == TorusValue(2, 1, 1)  # 1/4

    def test_zero_polynomial(self):
        f = zero_poly(3, 2)
        assert all(f.evaluate(x).is_zero() for x in all_points(3, 2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            monomial_poly(2, 2, (1, 1)).evaluate((1,))

    def test_against_fraction_oracle(self, rng):
        for _ in range(50):
            p = rng.choice([2, 3])
            n = rng.randint(1, 3)
            poly = random_canonical_poly(p, n, 2, rng)
            for x in all_points(p, n):
                assert poly.evaluate(x).as_fraction() == brute_force_eval(poly, x)


class TestWordTable:
    def test_linear_table(self):
        f = monomial_poly(2, 1, (1,))
        assert f.to_word().values == (0, 1)  # 0, 1/2 at depth 0

    def test_deep_table(self):
        f = monomial_poly(2, 1, (1,), k=1)
        w = f.to_word()
        assert w.depth == 1 and w.values == (0, 1)  # 0, 1/4

    def test_zero_table(self):
        assert zero_poly(3, 2).to_word().values == (0,) * 9

    def test_row_major_order(self):
        # x_1 is the most significant digit of the index
        f = monomial_poly(2, 2, (1, 0))
        assert f.to_word().values == (0, 0, 1, 1)

    def test_classical_field_word_matches_iota(self):
        f = classical_from_coeffs(3, 1, {(2,): 2, (0,): 1})
        w = f.classical_field_word()
        assert w.values == tuple(
            int(f.evaluate((x,)).numerator_at(0)) for x in range(3)
        )


class TestDegreeDepth:
    def test_examples(self):
        assert monomial_poly(2, 2, (1, 1)).degree() == 2
        assert monomial_poly(2, 2, (1, 1)).depth() == 0
        deep = monomial_poly(2, 1, (1,), k=1)
        assert deep.degree() == 2  # 1 + 1*(2-1)
        assert deep.depth() == 1
        assert zero_poly(2, 1).degree() == 0
        assert zero_poly(2, 1).depth() == 0

    def test_deep_constant_rejected(self):
        with pytest.raises(ValueError):
            NonclassicalPoly(2, 1, {Monomial((0,), 1): 1})


class TestScalarMultiply:
    def test_times_p_drops_layer(self):
        f = monomial_poly(2, 1, (1,), k=1)  # |x|/4, degree 2, depth 1
        g = f.scalar_mul(2)
        assert g == monomial_poly(2, 1, (1,))  # iota(x)
        assert g.degree() == max(f.degree() - 2 + 1, 0) == 1
        assert g.depth() == 0

    def test_identity(self, rng):
        for _ in range(20):
            f = random_canonical_poly(rng.choice([2, 3]), 2, 2, rng)
            assert f.scalar_mul(1) == f

    def test_classical_killed_by_p(self):
        f = monomial_poly(3, 1, (1,))
        assert f.scalar_mul(3).is_zero()

    def test_matches_pointwise_oracle(self, rng):
        for _ in range(40):
            p = rng.choice([2, 3])
            n = rng.randint(1, 2)
            c = rng.randint(0, 3 * p)
            f = random_canonical_poly(p, n, 2, rng)
            g = f.scalar_mul(c)
            for x in all_points(p, n):
                assert g.evaluate(x).as_fraction() == (c * brute_force_eval(f, x)) % 1

    def test_unit_multiples_preserve_degree_and_depth(self, rng):
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            f = random_canonical_poly(p, 2, 2, rng)
            for c in range(1, p):
                g = f.scalar_mul(c)
                assert g.degree() == f.degree() and g.depth() == f.depth()


class TestAdd:
    def test_pointwise(self, rng):
        for _ in range(30):
            p = rng.choice([2, 3])
            n = rng.randint(1, 2)
            f = random_canonical_poly(p, n, 2, rng)
            g = random_canonical_poly(p, n, 2, rng)
            h = f.add(g)
            for x in all_points(p, n):
                expected = (brute_force_eval(f, x) + brute_force_eval(g, x)) % 1
                assert h.evaluate(x).as_fraction() == expected

    def test_neg_cancels(self, rng):
        f = random_canonical_poly(3, 2, 2, rng)
        assert f.add(f.neg()).is_zero()


class TestCanonicalFit:
    def test_deep_table(self):
        poly = canonical_fit(Word.torus_word(2, 1, 1, [0, 1]), 1)  # [0, 1/4]
        assert poly == monomial_poly(2, 1, (1,), k=1)

    def test_classical_table(self):
        f = monomial_poly(2, 2, (1, 1))
        assert canonical_fit(f.to_word(), 0) == f

    def test_shifted_constant(self):
        with pytest.raises(NotAPolynomialError):
            canonical_fit(Word.torus_word(2, 1, 1, [1, 1]), 3)  # the constant 1/4

    def test_depth_cap(self):
        with pytest.raises(NotAPolynomialError):
            canonical_fit(Word.torus_word(2, 1, 1, [0, 1]), 0)

    def test_round_trip_random(self, rng):
        for _ in range(120):
            p = rng.choice([2, 3])
            n = rng.randint(1, 3)
            poly = random_canonical_poly(p, n, 2, rng)
            assert canonical_fit(poly.to_word(), poly.depth()) == poly


# --- the dense monomial kernel against the fraction oracle ---------------

# largest n per prime that keeps the oracle's p^n points quick
KERNEL_SHAPES = {2: 6, 3: 4, 5: 3, 7: 2, 17: 2, 19: 2, 23: 2}


@st.composite
def kernel_polys(draw):
    p = draw(st.sampled_from(sorted(KERNEL_SHAPES)))
    n = draw(st.integers(1, KERNEL_SHAPES[p]))
    depth = draw(st.integers(0, 2))
    seed = draw(st.integers(0, 2**32))
    return random_canonical_poly(p, n, depth, random.Random(seed), max_terms=5), depth


@settings(derandomize=True, max_examples=200, deadline=None)
@given(kernel_polys())
def test_dense_kernel_matches_fraction_oracle(case):
    poly, depth = case
    p, n = poly.prime, poly.nvars
    word = poly.to_word()
    for x in all_points(p, n):
        assert word.torus_value(point_to_index(p, x)).as_fraction() == brute_force_eval(poly, x)
    assert canonical_fit(word, depth) == poly
    params = CodeParams(p, n, n * (p - 1))  # every exponent vector is a basis row
    rows = _basis_matrix(params)
    for m in poly.terms:
        row = rows[params.basis.index(m.exps)]
        mono = monomial_poly(p, n, m.exps)
        assert row.tolist() == [mono.evaluate(x).numerator_at(0) for x in all_points(p, n)]


def test_p17_table_top_power():
    # 16**16 leaves int64; the table must still hold 16**16 mod 17 = 1
    assert monomial_poly(17, 1, (16,)).to_word().values[16] == 1


def test_p17_deep_fit_round_trip():
    poly = monomial_poly(17, 1, (16,), k=1)
    assert canonical_fit(poly.to_word(), 1) == poly


@pytest.mark.parametrize("depth", [40, 61])
def test_canonical_fit_deep_p2_word(tmp_path, capsys, depth):
    path = tmp_path / "deep.word"
    path.write_text(f"2 1 torus:{depth}\n0 1\n")
    assert main(["canonical-fit", "--word", str(path), "--max-depth", str(depth)]) == 0
    assert capsys.readouterr().out == f"p=2 n=1\nc=1 e=1 k={depth}\n"


def test_canonical_fit_refuses_modulus_past_int64(tmp_path, capsys):
    path = tmp_path / "deep.word"
    path.write_text("2 1 torus:62\n0 1\n")
    assert main(["canonical-fit", "--word", str(path), "--max-depth", "62"]) == 3
    assert "infeasible" in capsys.readouterr().err


class TestInterpolateClassical:
    def test_and_gate(self):
        word = Word.field_word(2, 2, [0, 0, 0, 1])
        assert interpolate_classical(word) == monomial_poly(2, 2, (1, 1))

    def test_zero(self):
        word = Word.field_word(3, 2, [0] * 9)
        assert interpolate_classical(word).is_zero()

    def test_origin_indicator(self):
        word = Word.field_word(3, 1, [1, 0, 0])
        poly = interpolate_classical(word)
        assert poly == classical_from_coeffs(3, 1, {(0,): 1, (2,): 2})
        # solve-and-re-evaluate oracle
        assert poly.classical_field_word().values == word.values

    def test_round_trip_random(self, rng):
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            n = rng.randint(1, 2)
            values = [rng.randrange(p) for _ in range(p**n)]
            word = Word.field_word(p, n, values)
            poly = interpolate_classical(word)
            assert poly.is_classical()
            assert poly.classical_field_word().values == word.values


class TestMultilinearize:
    def test_exponent_collapse(self):
        assert multilinearize(monomial_poly(3, 1, (2,))) == monomial_poly(3, 1, (1,))

    def test_combined_terms(self):
        f = classical_from_coeffs(3, 2, {(2, 1): 1, (1, 0): 1})
        g = multilinearize(f)
        assert g == classical_from_coeffs(3, 2, {(1, 1): 1, (1, 0): 1})
        for z in itertools.product((0, 1), repeat=2):
            assert f.evaluate(z) == g.evaluate(z)

    def test_idempotent(self, rng):
        for _ in range(30):
            f = random_canonical_poly(rng.choice([2, 3, 5]), 2, 0, rng)
            assert multilinearize(multilinearize(f)) == multilinearize(f)

    def test_cube_agreement(self, rng):
        for _ in range(30):
            p = rng.choice([3, 5])
            f = random_canonical_poly(p, 3, 0, rng)
            g = multilinearize(f)
            for z in itertools.product((0, 1), repeat=3):
                assert f.evaluate(z) == g.evaluate(z)

    def test_requires_classical(self):
        with pytest.raises(ValueError):
            multilinearize(monomial_poly(2, 1, (1,), k=1))


class TestSymmetricPoly:
    def test_small_cases(self):
        s1 = symmetric_poly(1, 3, 2)
        assert s1 == classical_from_coeffs(
            2, 3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
        )
        s2 = symmetric_poly(2, 3, 2)
        assert s2 == classical_from_coeffs(
            2, 3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
        )
        s3 = symmetric_poly(3, 3, 2)
        assert s3 == classical_from_coeffs(2, 3, {(1, 1, 1): 1})

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            symmetric_poly(4, 3, 2)
        with pytest.raises(ValueError):
            symmetric_poly(0, 3, 2)


class TestClassicalMultiply:
    def test_exponent_reduction_is_functional(self, rng):
        for _ in range(25):
            p = rng.choice([2, 3])
            f = random_canonical_poly(p, 2, 0, rng)
            g = random_canonical_poly(p, 2, 0, rng)
            h = mul_classical(f, g)
            for x in all_points(p, 2):
                expected = (
                    brute_force_eval(f, x) * p * (brute_force_eval(g, x) * p)
                ) % p
                assert h.evaluate(x).numerator_at(0) == expected


class TestTextFormat:
    def test_round_trip(self, rng):
        for _ in range(25):
            poly = random_canonical_poly(rng.choice([2, 3]), 3, 2, rng)
            assert NonclassicalPoly.from_text(poly.to_text()) == poly

    @pytest.mark.parametrize(
        "text,missing",
        [("p=2\nc=1 e=1 k=0\n", "n="), ("p=2 n=1\nc=1 k=0\n", "e="), ("p=2 n=1\nc=1 e=1\n", "k=")],
    )
    def test_missing_field_names_it(self, text, missing):
        with pytest.raises(ValueError, match=missing):
            NonclassicalPoly.from_text(text)

    def test_term_ordering(self):
        poly = NonclassicalPoly(
            2, 2, {Monomial((1, 0), 0): 1, Monomial((0, 1), 1): 1}
        )
        lines = poly.to_text().strip().splitlines()
        assert lines[0] == "p=2 n=2"
        assert lines[1] == "c=1 e=0,1 k=1"  # deeper terms first
        assert lines[2] == "c=1 e=1,0 k=0"


class TestWordText:
    def test_round_trip_field(self):
        w = Word.field_word(3, 2, range(9))
        assert Word.from_text(w.to_text()) == w

    def test_round_trip_torus(self):
        w = Word.torus_word(2, 2, 1, [0, 1, 2, 3])
        parsed = Word.from_text(w.to_text())
        assert parsed == w and parsed.depth == 1


@pytest.mark.parametrize("poly", [
    monomial_poly(2, 3, [1, 0, 1]),
    NonclassicalPoly(3, 2, {Monomial((1, 0), 1): 2, Monomial((0, 2), 0): 1, Monomial((1, 1), 2): 1}),
    zero_poly(5, 2),
], ids=["classical", "depth-2", "zero"])
def test_pickle_round_trip(poly):
    import pickle

    back = pickle.loads(pickle.dumps(poly))
    assert back == poly and back.to_text() == poly.to_text()
    assert back.to_word().values == poly.to_word().values
