import itertools
import json
from fractions import Fraction

import pytest
from unittest import mock

from rmlab import CodeParams, FeasibilityLimits, delta, sampled_max_list_size
from rmlab.verify import (
    DEFAULT_RUNS,
    parse_run_config,
    planned_runs,
    reports_to_csv,
    run_all,
    run_check,
)


class TestDeltaProduct:
    def test_case_count_matches_grid(self):
        report = run_check("DELTA_PRODUCT", {"p": 3, "dmax": 20})
        assert report.passed
        assert report.cases_checked == 40  # c in {1,2} x d in 1..20

    def test_branches_covered(self):
        report = run_check("DELTA_PRODUCT", {"p": 5, "dmax": 12})
        assert report.passed
        assert report.details["c_le_b"] > 0 and report.details["c_gt_b"] > 0

    def test_fresh_fraction_oracle(self):
        # independent re-derivation of the inequality over a small grid
        for p in (2, 3, 5):
            for d in range(1, 12):
                for c in range(1, min(p, d + 1)):
                    assert delta(p, c) * delta(p, d - c) >= delta(p, d)


class TestSZ1:
    def test_example_case_count(self):
        report = run_check("SZ1", {"p": 2, "dmax": 1, "n1max": 1, "n2max": 1})
        assert report.passed
        # d=1: 8 polynomials x 4 functions; plus the d=0 grid 2 x 4
        assert report.cases_checked == 40

    def test_boundary_agreement_not_flagged(self):
        # f1 = x2 depends on the second variable and achieves agreement
        # exactly 1 - delta(1) = 1/2 with the best f2(x1); the hypothesis
        # is strict, so the checker must pass
        report = run_check("SZ1", {"p": 2, "dmax": 1, "n1max": 1, "n2max": 1})
        assert report.passed
        best = max(
            sum(1 for x1 in range(2) for x2 in range(2) if x2 == f2[x1])
            for f2 in itertools.product(range(2), repeat=2)
        )
        assert Fraction(best, 4) == 1 - delta(2, 1)

    @pytest.mark.parametrize("fail", [False, True])
    def test_report_independent_of_the_comparison_budget(self, fail):
        from rmlab import verify

        params = {"p": 2, "dmax": 2, "n1max": 2, "n2max": 2}
        lengths = []
        blocks = verify.codeword_blocks

        def recorded(*args):
            for item in blocks(*args):
                lengths.append(len(item[2]))
                yield item

        # with delta = 1 every agreement counts, so a dependent f1 fails the claim
        threshold = (lambda p, d: Fraction(1)) if fail else delta
        with mock.patch.object(verify, "delta", threshold), mock.patch.object(verify, "codeword_blocks", recorded):
            report = run_check("SZ1", params)
            default_blocks = len(lengths)
            with mock.patch.object(verify, "_HIT_BUDGET", 256):
                small = run_check("SZ1", params)
        assert report.passed != fail
        assert len(lengths) - default_blocks > default_blocks
        assert small.status == report.status and small.counterexample == report.counterexample
        if not fail:
            assert small.to_json() == report.to_json()

    def test_p3_small(self):
        report = run_check("SZ1", {"p": 3, "dmax": 1, "n1max": 1, "n2max": 1})
        assert report.passed


class TestLucas:
    def test_example(self):
        report = run_check("LUCAS", {"p": 2, "r": 3, "A": 1, "k": 1})
        assert report.passed
        assert report.cases_checked == 8 * 2  # points x digits

    def test_infeasible_reports_not_crashes(self):
        report = run_check("LUCAS", {"p": 2, "r": 40, "A": 1, "k": 1})
        assert report.status == "infeasible"
        assert report.cases_checked == 0
        assert "reason" in report.details


class TestMLUnique:
    def test_random_and_exhaustive(self):
        report = run_check(
            "ML_UNIQUE", {"p": 3, "n": 2, "count": 60, "seed": 3, "exhaustive_n": 1}
        )
        assert report.passed
        assert report.details["exhaustive_pairs"] > 0

    def test_p2_degenerate(self):
        report = run_check("ML_UNIQUE", {"p": 2, "n": 3, "count": 30, "seed": 4})
        assert report.passed


class TestScalarDegree:
    def test_small_run_both_primes(self):
        for p, seed in ((2, 1), (3, 2)):
            report = run_check(
                "SCALAR_DEGREE",
                {"p": p, "nmax": 3, "depthmax": 2, "count": 60, "seed": seed, "trials": 2000},
            )
            assert report.passed, report.counterexample
            assert report.details["exhaustive"] + report.details["sampled"] == 60

    def test_chain_count_over_cap_is_infeasible(self):
        # the exact walk refuses C(n+d+1, d+1) chains past the cap rather
        # than passing on a sample
        report = run_check(
            "SCALAR_DEGREE",
            {"p": 3, "nmax": 3, "depthmax": 2, "count": 60, "seed": 2, "trials": 2000},
            FeasibilityLimits(exhaustive_cap=20),
        )
        assert report.status == "infeasible"
        assert "basis derivative walk" in report.details["reason"]


class TestDefaultDegreePlan:
    # mode labels and the lower-side gate follow the nominal tuple counts,
    # so these details pin the default plan whatever work the checks do
    @pytest.mark.parametrize(
        "claim, row, details",
        [
            ("SCALAR_DEGREE", 13, {"exhaustive": 500, "sampled": 0, "lower_side_checked": 491}),
            ("SCALAR_DEGREE", 14, {"exhaustive": 299, "sampled": 201, "lower_side_checked": 327}),
            ("DEG_COEF", 16, {"checked": 27, "skipped": 23}),
        ],
    )
    def test_details(self, claim, row, details):
        assert DEFAULT_RUNS[row][0] == claim
        report = run_check(*DEFAULT_RUNS[row])
        assert report.passed, report.counterexample
        assert report.details == details


class TestHtildeUniform:
    def test_decay_and_threshold(self):
        report = run_check(
            "HTILDE_UNIFORM",
            {"p": 2, "k": 1, "A": 1, "rs": [2, 4, 8], "threshold": "1/10", "rlimit": 16},
        )
        assert report.passed
        assert report.details["deviations"] == {"2": "1/1", "4": "1/2", "8": "1/8"}
        assert report.details["threshold_hit_at_r"] <= 16

    def test_non_monotone_pair_fails(self):
        # deviations for r=3 and r=4 are both exactly 1/2, so a strict
        # decrease across (3, 4) must be reported as a failure
        report = run_check(
            "HTILDE_UNIFORM", {"p": 2, "k": 1, "A": 1, "rs": [3, 4]}
        )
        assert report.status == "fail"


class TestDegCoef:
    def test_small_run(self):
        report = run_check(
            "DEG_COEF",
            {"p": 2, "k": 1, "A": 1, "r": 4, "d": 4, "n1": 2, "count": 15, "seed": 0, "trials": 4000},
        )
        assert report.passed, report.counterexample
        assert report.details["checked"] + report.details["skipped"] == 15
        assert report.details["checked"] > 0

    def test_trials_do_not_change_the_certificate(self):
        # the certificate ignores trials, so a small value cannot certify a
        # table of degree > 4 and turn it into a false counterexample
        params = dict(DEFAULT_RUNS[16][1], trials=10)
        report = run_check("DEG_COEF", params)
        assert report.passed, report.counterexample
        assert report.details == {"checked": 27, "skipped": 23}


class TestAPK:
    def test_inequality(self):
        report = run_check("APK", {"amax": 30, "kmax": 10, "pmax": 13})
        assert report.passed
        assert report.cases_checked == 6 * 30 * 11  # primes up to 13


class TestThm1Desk:
    def test_unique_decoding_clause(self):
        report = run_check(
            "THM1_DESK",
            {"p": 2, "d": 1, "eps": "1/4", "samples": 40, "seed": 0, "ns": [3, 4]},
        )
        assert report.passed

    def test_failure_counterexample_reverifies(self):
        # at eps = 1/16 the sampled maxima grow with n at these tiny sizes;
        # the checker must report that honestly, with a counterexample that
        # re-verifies through the public sampling operation
        report = run_check(
            "THM1_DESK",
            {"p": 2, "d": 1, "eps": "1/16", "samples": 100, "seed": 0, "ns": [3, 4]},
        )
        assert report.status == "fail"
        ce = report.counterexample
        eta = delta(2, 1) - Fraction(1, 16)
        small = sampled_max_list_size(CodeParams(2, ce["n_small"], 1), eta, 100, 0)
        large = sampled_max_list_size(CodeParams(2, ce["n_large"], 1), eta, 100, 0)
        assert small.count == ce["max_small"]
        assert large.count == ce["max_large"]
        assert large.count > small.count


class TestThm2Family:
    @pytest.mark.parametrize("params", [
        {"p": 2, "d": 2, "e": 1, "n": 5},
        {"p": 3, "d": 3, "e": 2, "n": 4},
    ])
    def test_family(self, params):
        report = run_check("THM2_FAMILY", params)
        assert report.passed
        assert report.cases_checked == report.details["size"]


class TestJohnsonGap:
    def test_gap_with_threshold(self):
        report = run_check("JOHNSON_GAP", {"p": 2, "ds": [2], "min_gap": "0.10"})
        assert report.passed
        assert report.details["gaps"]["2"] == pytest.approx(0.1035533906, abs=1e-9)

    def test_beats_johnson_for_larger_d(self):
        report = run_check("JOHNSON_GAP", {"p": 2, "ds": [3, 4, 5, 6]})
        assert report.passed


class TestRunAll:
    def test_config_claim_filter(self):
        config = parse_run_config("claims=APK,DELTA_PRODUCT\nDELTA_PRODUCT.dmax=5\n")
        runs = planned_runs(config)
        assert {claim for claim, _ in runs} == {"APK", "DELTA_PRODUCT"}
        assert all(p["dmax"] == 5 for c, p in runs if c == "DELTA_PRODUCT")

    def test_config_p_filter(self):
        config = parse_run_config("p=2\n")
        runs = planned_runs(config)
        assert all(p.get("p") in (None, 2) for _, p in runs)

    def test_config_rejects_unknown_key(self):
        with pytest.raises(ValueError):
            parse_run_config("bogus=1\n")

    def test_subset_run_and_csv(self):
        config = parse_run_config("claims=APK,JOHNSON_GAP\nAPK.amax=10\nAPK.kmax=5\nAPK.pmax=7\n")
        reports = run_all(config)
        assert all(r.passed for r in reports)
        csv_text = reports_to_csv(reports)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "claimId,status,casesChecked,elapsedMs"
        assert len(lines) == len(reports) + 1

    def test_json_line_is_deterministic(self):
        a = run_check("APK", {"amax": 5, "kmax": 5, "pmax": 5})
        b = run_check("APK", {"amax": 5, "kmax": 5, "pmax": 5})
        assert a.to_json() == b.to_json()
        payload = json.loads(a.to_json())
        assert "elapsedMs" not in payload
        assert json.loads(a.to_json(include_elapsed=True))["elapsedMs"] >= 0

    def test_unknown_claim_rejected(self):
        with pytest.raises(ValueError):
            run_check("NOPE", {})


def test_default_runs_reference_known_checkers():
    from rmlab.verify import CHECKERS

    assert {claim for claim, _ in DEFAULT_RUNS} <= set(CHECKERS)
