import math
from fractions import Fraction

import pytest

import oracles
from rmlab import (
    CodeParams,
    Factor,
    SimplexFunction,
    Word,
    agreement_prob,
    atom_uniformity,
    distance,
    energy,
    enumerate_code,
    monomial_poly,
    one_sided_regularize,
    rank_bruteforce,
    random_field_word,
    weak_regularize,
)

embed = SimplexFunction.from_field_word


def degree_one_words(p, n):
    return [w for _, w in enumerate_code(CodeParams(p, n, 1))]


def uniform_function(p, n):
    row = tuple(Fraction(1, p) for _ in range(p))
    return SimplexFunction(p, (row,) * (p**n))


class TestAgreementEnergy:
    def test_deterministic_agreement(self):
        w = monomial_poly(2, 2, (1, 0)).classical_field_word()
        assert agreement_prob(embed(w), embed(w)) == 1

    def test_uniform_agreement(self):
        w = monomial_poly(2, 2, (1, 0)).classical_field_word()
        assert agreement_prob(embed(w), uniform_function(2, 2)) == Fraction(1, 2)

    def test_cross_agreement(self):
        u = monomial_poly(2, 2, (1, 0)).classical_field_word()
        v = monomial_poly(2, 2, (0, 1)).classical_field_word()
        assert agreement_prob(embed(u), embed(v)) == Fraction(1, 2)

    def test_energy_values(self):
        w = monomial_poly(2, 2, (1, 0)).classical_field_word()
        assert energy(embed(w)) == 1
        assert energy(uniform_function(2, 2)) == Fraction(1, 2)

    def test_float_weights_rejected(self):
        with pytest.raises(ValueError, match="exact rationals"):
            SimplexFunction(2, ((0.5, 0.5),))

    def test_energy_of_global_average(self):
        g = embed(monomial_poly(2, 1, (1,)).classical_field_word())
        trivial = Factor.trivial(2, 1)
        assert energy(oracles.conditional_expectation(g, trivial)) == Fraction(1, 2)


class TestConditionalExpectation:
    def test_measurable_fixed_point(self):
        x2 = monomial_poly(2, 2, (0, 1))
        factor = Factor.from_polys([x2])
        g = embed(x2.classical_field_word())
        assert oracles.conditional_expectation(g, factor) == g

    def test_trivial_factor_average(self):
        g = embed(monomial_poly(2, 2, (1, 0)).classical_field_word())
        avg = oracles.conditional_expectation(g, Factor.trivial(2, 2))
        expected = (Fraction(1, 2), Fraction(1, 2))
        assert all(row == expected for row in avg.table)

    def test_average_over_other_variable(self):
        g = embed(monomial_poly(2, 2, (1, 0)).classical_field_word())
        factor = Factor.from_polys([monomial_poly(2, 2, (0, 1))])
        out = oracles.conditional_expectation(g, factor)
        expected = (Fraction(1, 2), Fraction(1, 2))
        assert all(row == expected for row in out.table)

    def test_idempotent_and_linear(self, rng):
        factor = Factor.from_polys([monomial_poly(2, 3, (1, 0, 0))])
        g = embed(random_field_word(2, 3, rng))
        h = embed(random_field_word(2, 3, rng))
        once = oracles.conditional_expectation(g, factor)
        assert oracles.conditional_expectation(once, factor) == once
        # linearity through a convex combination
        mix = SimplexFunction(
            2,
            tuple(
                tuple((a + b) / 2 for a, b in zip(ra, rb))
                for ra, rb in zip(g.table, h.table)
            ),
        )
        mixed = oracles.conditional_expectation(mix, factor)
        cg = oracles.conditional_expectation(g, factor)
        ch = oracles.conditional_expectation(h, factor)
        for row, ra, rb in zip(mixed.table, cg.table, ch.table):
            assert row == tuple((a + b) / 2 for a, b in zip(ra, rb))

    def test_pythagoras_refinement(self, rng):
        base = Factor.from_polys([monomial_poly(2, 3, (1, 0, 0))])
        finer = Factor.from_polys(
            [monomial_poly(2, 3, (1, 0, 0)), monomial_poly(2, 3, (0, 1, 0))]
        )
        assert finer.refines(base)
        for _ in range(10):
            g = embed(random_field_word(2, 3, rng))
            assert energy(oracles.conditional_expectation(g, finer)) >= energy(
                oracles.conditional_expectation(g, base)
            )
        # equality when g is measurable with respect to the coarse factor
        g = embed(monomial_poly(2, 3, (1, 0, 0)).classical_field_word())
        assert energy(oracles.conditional_expectation(g, finer)) == energy(
            oracles.conditional_expectation(g, base)
        )


class TestWeakRegularize:
    def test_constant_word_trivial(self):
        g = Word.field_word(2, 2, [1, 1, 1, 1])
        family = [embed(w) for w in degree_one_words(2, 2)]
        res = weak_regularize(embed(g), family, Fraction(2, 5))
        assert res.chosen == ()

    def test_eps_at_least_one_vacuous(self, rng):
        g = random_field_word(2, 2, rng)
        family = [embed(w) for w in degree_one_words(2, 2)]
        res = weak_regularize(embed(g), family, Fraction(1))
        assert res.chosen == ()

    def test_hand_traced_example(self):
        # g = x1 over F_2^2 against all 8 degree-one words at eps = 1/10:
        # the first violator in family order is x1 itself and one step
        # suffices; the energy climbs from 1/2 to 1
        words = degree_one_words(2, 2)
        g = monomial_poly(2, 2, (1, 0)).classical_field_word()
        res = weak_regularize(embed(g), [embed(w) for w in words], Fraction(1, 10))
        assert len(res.chosen) == 1
        assert words[res.chosen[0]].values == g.values
        assert [t.energy for t in res.trace] == [Fraction(1, 2), Fraction(1)]
        assert res.trace[0].violator is None
        assert res.trace[1].violator == res.chosen[0]

    def test_contract_and_energy_increments(self, rng):
        eps = Fraction(2, 5)
        family_words = degree_one_words(2, 3)
        family = [embed(w) for w in family_words]
        for _ in range(25):
            g = embed(random_field_word(2, 3, rng))
            res = weak_regularize(g, family, eps)
            assert len(res.chosen) <= math.floor(1 / eps**2)
            # post-hoc certification: never trust the loop, re-scan everything
            for f in family:
                gap = agreement_prob(res.proxy, f) - agreement_prob(g, f)
                assert abs(gap) <= eps
            for before, after in zip(res.trace, res.trace[1:]):
                assert after.energy >= before.energy + eps**2

    def test_gamma_matches_conditional_expectation(self, rng):
        family_words = degree_one_words(2, 2)
        family = [embed(w) for w in family_words]
        g_word = random_field_word(2, 2, rng)
        res = weak_regularize(embed(g_word), family, Fraction(1, 4))
        factor = Factor(
            [family_words[i] for i in res.chosen]
        ) if res.chosen else Factor.trivial(2, 2)
        cond = oracles.conditional_expectation(embed(g_word), factor)
        assert res.proxy == cond

    def test_json_round_trip_shape(self):
        import json

        g = monomial_poly(2, 2, (1, 0)).classical_field_word()
        family = [embed(w) for w in degree_one_words(2, 2)]
        res = weak_regularize(embed(g), family, Fraction(1, 10))
        payload = json.loads(res.to_json())
        assert payload["eps"] == "1/10"
        assert payload["chosen"] == list(res.chosen)
        assert payload["trace"][0]["violator"] is None


class TestOneSided:
    def test_member_of_h_recovered_exactly(self):
        words = degree_one_words(2, 3)
        g = words[5]
        res = one_sided_regularize(g, words, Fraction(1, 10))
        idx = 5
        assert distance(res.composed_word(idx), words[idx]) == 0

    def test_bound_holds_for_all_members(self, rng):
        eps = Fraction(2, 5)
        words = degree_one_words(2, 3)
        for _ in range(25):
            g = random_field_word(2, 3, rng)
            res = one_sided_regularize(g, words, eps)
            for i, f in enumerate(words):
                lhs = 1 - distance(res.composed_word(i), f)
                rhs = 1 - distance(g, f)
                assert lhs >= rhs - eps

    def test_constant_center(self):
        words = degree_one_words(2, 2)
        g = Word.field_word(2, 2, [0, 0, 0, 0])
        res = one_sided_regularize(g, words, Fraction(1, 4))
        for i, f in enumerate(words):
            lhs = 1 - distance(res.composed_word(i), f)
            rhs = 1 - distance(g, f)
            assert lhs >= rhs - Fraction(1, 4)

    def test_plurality_is_optimal_per_atom(self, rng):
        # among deterministic atom-measurable tables, the plurality rule
        # maximizes agreement: spot-check against random alternatives
        words = degree_one_words(2, 2)
        g = random_field_word(2, 2, rng)
        res = one_sided_regularize(g, words, Fraction(1, 4))
        for i, f in enumerate(words):
            best = 1 - distance(res.composed_word(i), f)
            for _ in range(10):
                alt = [rng.randrange(2) for _ in res.keys]
                alt_word = Word(
                    2, 2, "field", 0,
                    tuple(alt[a] for a in res.atoms.tolist()),
                )
                assert 1 - distance(alt_word, f) <= best


class TestAtomUniformity:
    def test_single_linear_exact(self):
        factor = Factor.from_polys([monomial_poly(2, 3, (1, 0, 0))])
        dev, _ = atom_uniformity(factor)
        assert dev == 0

    def test_independent_pair_exact(self):
        x1 = monomial_poly(2, 2, (1, 0))
        factor = Factor.from_polys([x1, x1.add(monomial_poly(2, 2, (0, 1)))])
        dev, _ = atom_uniformity(factor)
        assert dev == 0

    def test_duplicate_half_empty(self):
        # atoms (0,0) and (1,1) hold half the space each; (0,1) and (1,0)
        # are empty; every nominal atom deviates by exactly 1/4
        x = monomial_poly(2, 1, (1,))
        dev, worst = atom_uniformity(Factor.from_polys([x, x]))
        assert dev == Fraction(1, 4)
        assert worst == (0, 0)  # first nominal atom in product order

    def test_norm_counts_nominal_atoms(self):
        deep = monomial_poly(2, 1, (1,), k=1)
        factor = Factor.from_polys([deep])
        assert factor.norm == 4  # p^{k+1}
        assert factor.size == 1

    def test_factor_serialization(self):
        import json

        deep = monomial_poly(2, 1, (1,), k=1)
        factor = Factor.from_polys([deep, monomial_poly(2, 1, (1,))])
        payload = json.loads(factor.to_json())
        assert payload["count"] == 2 and payload["norm"] == 8
        assert [d["depth"] for d in payload["definers"]] == [1, 0]
        assert Word.from_text(payload["definers"][0]["word"]) == deep.to_word()


class TestRank:
    def test_d1_cases(self):
        const = Word.field_word(2, 2, [1, 1, 1, 1])
        assert rank_bruteforce(const, 1, 3).kind == "exact"
        assert rank_bruteforce(const, 1, 3).value == 0
        x1 = monomial_poly(2, 2, (1, 0)).classical_field_word()
        assert rank_bruteforce(x1, 1, 3).kind == "infinite"

    def test_product_needs_two_linear(self):
        w = monomial_poly(2, 2, (1, 1)).classical_field_word()
        res = rank_bruteforce(w, 2, 3)
        assert res.kind == "exact" and res.value == 2
        # the witness pair genuinely determines the product
        sigs = [tuple(q.to_word().values) for q in res.witness]
        joint = list(zip(*sigs))
        atom_val = {}
        for idx, key in enumerate(joint):
            assert atom_val.setdefault(key, w.values[idx]) == w.values[idx]

    def test_budget_lower_bound(self):
        w = monomial_poly(2, 2, (1, 1)).classical_field_word()
        res = rank_bruteforce(w, 2, 1)
        assert res.kind == "lower_bound" and res.value == 1

    def test_negative_budget_rejected(self):
        w = monomial_poly(2, 2, (1, 1)).classical_field_word()
        with pytest.raises(ValueError, match="budget must be >= 0"):
            rank_bruteforce(w, 2, -1)
