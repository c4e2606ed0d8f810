"""Desk-scale checkers for the standalone claims, inequalities, and
identities underlying the list-decoding bounds.

Each checker exhaustively (or, where marked, at seeded random) searches a
configured parameter range and reports pass/fail/infeasible together with
the number of cases checked; a fail always carries a counterexample that
re-verifies through the public operations of the other modules.  Ranges
are never silently shrunk: exceeding a cap yields an ``infeasible`` report.

Reports are deterministic given (claim, params, seed).  Wall-clock timing
is kept out of the JSON-line serialization so that identical runs produce
byte-identical output; it appears in the CSV summary only.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .degreecheck import verify_degree_by_derivatives
from .limits import FeasibilityError, FeasibilityLimits, resolve
from .polynomial import (
    NonclassicalPoly,
    classical_from_coeffs,
    interpolate_classical,
    mul_classical,
    multilinearize,
    random_canonical_poly,
)
from .rmcode import (
    CodeParams,
    _HIT_BUDGET,
    _ball_counts,
    codeword_blocks,
    delta,
    johnson_radius,
    poly_from_coeff_row,
    sampled_max_list_size,
    tightness_family,
    tightness_family_size,
)
from .special import (
    build_htilde,
    htilde_uniformity_deviation,
    lucas_digit_words,
)
from .torus import frac_str, is_prime, parse_fraction, require_prime
from .words import FIELD, Word, index_to_point, iota_word, point_to_index

PASS = "pass"
FAIL = "fail"
INFEASIBLE = "infeasible"


@dataclass
class ClaimReport:
    claim: str
    parameters: dict
    status: str
    cases_checked: int
    counterexample: dict | None = None
    details: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_json(self, include_elapsed: bool = False) -> str:
        payload = {
            "claim": self.claim,
            "parameters": self.parameters,
            "status": self.status,
            "casesChecked": self.cases_checked,
            "counterexample": self.counterexample,
            "details": self.details,
        }
        if include_elapsed:
            payload["elapsedMs"] = round(self.elapsed_ms, 3)
        return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# individual checkers; each returns (status, cases, counterexample, details)


def _check_delta_product(params: dict, limits: FeasibilityLimits):
    """delta(c) * delta(d-c) >= delta(d) for 1 <= c <= p-1, d <= dmax.

    Pairs with c > d (where delta(d-c) is undefined) count as vacuously
    satisfied hypothesis cases.  Both proof branches (c <= b and c > b for
    d = a(p-1)+b) are tallied.
    """
    p, dmax = params["p"], params["dmax"]
    require_prime(p)
    cases = 0
    branches = {"c_le_b": 0, "c_gt_b": 0, "vacuous": 0}
    for d in range(1, dmax + 1):
        b = d % (p - 1)
        for c in range(1, p):
            cases += 1
            if c > d:
                branches["vacuous"] += 1
                continue
            branches["c_le_b" if c <= b else "c_gt_b"] += 1
            lhs = delta(p, c) * delta(p, d - c)
            rhs = delta(p, d)
            if lhs < rhs:
                return (
                    FAIL,
                    cases,
                    {
                        "p": p,
                        "d": d,
                        "c": c,
                        "lhs": frac_str(lhs),
                        "rhs": frac_str(rhs),
                    },
                    branches,
                )
    return PASS, cases, None, branches


def _enumerate_functions(p: int, domain: int, limits: FeasibilityLimits):
    """All functions from a domain of the given size to F_p, as value rows."""
    limits.check_cases(p**domain, "function space enumeration")
    return itertools.product(range(p), repeat=domain)


def _check_sz1(params: dict, limits: FeasibilityLimits):
    """Schwartz-Zippel variant: if deg(f1) <= d and f1 agrees with some
    f2(x_1..x_{n1}) on more than a 1 - delta(d) fraction of points, then f1
    cannot depend on the last n2 coordinates.  f2 ranges over ALL functions
    F^{n1} -> F, f1 over all degree <= d polynomials."""
    p = params["p"]
    dmax, n1max, n2max = params["dmax"], params["n1max"], params["n2max"]
    cases = 0
    flagged = 0
    for d in range(0, dmax + 1):
        dlt = delta(p, d)
        for n1 in range(1, n1max + 1):
            for n2 in range(1, n2max + 1):
                code = CodeParams(p, n1 + n2, d)
                size = code.block_length
                tail = p**n2
                f2_rows = np.array(
                    list(_enumerate_functions(p, p**n1, limits)), dtype=np.int64
                )
                g_rows = np.repeat(f2_rows, tail, axis=1)
                limits.check_cases(
                    code.codeword_count * len(f2_rows), "SZ1 pair scan"
                )
                for _, coeffs, tables in codeword_blocks(code, limits, max(1, _HIT_BUDGET // g_rows.size)):
                    agree = (tables[:, None, :] == g_rows[None, :, :]).sum(axis=2)
                    # agreement > 1 - delta(d), exactly:
                    above = agree * dlt.denominator > (
                        dlt.denominator - dlt.numerator
                    ) * size
                    dependent = (
                        tables.reshape(len(tables), p**n1, tail)
                        != tables.reshape(len(tables), p**n1, tail)[:, :, :1]
                    ).any(axis=(1, 2))
                    cases += above.size
                    flagged += int(above.sum())
                    bad = np.nonzero(above.any(axis=1) & dependent)[0]
                    for row in bad:
                        col = int(np.nonzero(above[row])[0][0])
                        poly = poly_from_coeff_row(code, coeffs[row])
                        return (
                            FAIL,
                            cases,
                            {
                                "p": p,
                                "d": d,
                                "n1": n1,
                                "n2": n2,
                                "f1": poly.to_text(),
                                "f2": [int(v) for v in f2_rows[col]],
                                "agreement": f"{int(agree[row, col])}/{size}",
                            },
                            {"pairs_above_threshold": flagged},
                        )
    return PASS, cases, None, {"pairs_above_threshold": flagged}


def _check_lucas(params: dict, limits: FeasibilityLimits):
    """Digit polynomials equal their symmetric realizations on the cube:
    W_i(z) = S_{p^i}(Z)(z) for all z in {0,1}^{rA} and 0 <= i <= k."""
    p, r, A, k = params["p"], params["r"], params["A"], params["k"]
    digit_words, sym_words = lucas_digit_words(r, A, k, p, limits)
    n = r * A
    cases = 0
    for bits in itertools.product((0, 1), repeat=n):
        idx = point_to_index(p, bits)
        for i in range(k + 1):
            cases += 1
            if digit_words[i].values[idx] != sym_words[i].values[idx]:
                return (
                    FAIL,
                    cases,
                    {
                        "z": list(bits),
                        "i": i,
                        "digit": digit_words[i].values[idx],
                        "symmetric": sym_words[i].values[idx],
                    },
                    {},
                )
    return PASS, cases, None, {}


def _random_classical(p: int, n: int, rng, max_terms: int = 5) -> NonclassicalPoly:
    return random_canonical_poly(p, n, 0, rng, max_terms=max_terms, nonzero=False)


def _check_ml_unique(params: dict, limits: FeasibilityLimits):
    """Multilinearization is determined by cube values: polynomials that
    agree on {0,1}^n (built by adding (z_i^2 - z_i) multiples) multilinearize
    identically; exhaustive cross-check over all pairs at a tiny size."""
    p, n = params["p"], params["n"]
    count, seed = params["count"], params["seed"]
    rng = random.Random(seed)
    cases = 0
    cube = list(itertools.product((0, 1), repeat=n))
    for case in range(count):
        cases += 1
        base = _random_classical(p, n, rng)
        if p == 2:
            other = base  # every exponent is already <= 1 over F_2
        else:
            i = rng.randrange(n)
            modifier = classical_from_coeffs(
                p,
                n,
                {
                    tuple(2 if j == i else 0 for j in range(n)): 1,
                    tuple(1 if j == i else 0 for j in range(n)): p - 1,
                },
            )
            other = base.add(mul_classical(modifier, _random_classical(p, n, rng)))
        if any(base.evaluate(z) != other.evaluate(z) for z in cube):
            return (
                FAIL,
                cases,
                {"case": case, "reason": "construction broke cube agreement"},
                {},
            )
        if multilinearize(base) != multilinearize(other):
            return (
                FAIL,
                cases,
                {
                    "case": case,
                    "P": base.to_text(),
                    "Q": other.to_text(),
                },
                {},
            )
    exhaustive_pairs = 0
    n_ex = params.get("exhaustive_n", 0)
    if n_ex:
        monos = [
            exps for exps in itertools.product(range(p), repeat=n_ex)
        ]
        polys = []
        limits.check_cases(p ** len(monos), "ML exhaustive enumeration")
        for combo in itertools.product(range(p), repeat=len(monos)):
            coeffs = {e: c for e, c in zip(monos, combo) if c}
            polys.append(classical_from_coeffs(p, n_ex, coeffs))
        cube_ex = list(itertools.product((0, 1), repeat=n_ex))
        for f, g in itertools.combinations(polys, 2):
            if all(f.evaluate(z) == g.evaluate(z) for z in cube_ex):
                exhaustive_pairs += 1
                cases += 1
                if multilinearize(f) != multilinearize(g):
                    return (
                        FAIL,
                        cases,
                        {"P": f.to_text(), "Q": g.to_text()},
                        {},
                    )
    return PASS, cases, None, {"exhaustive_pairs": exhaustive_pairs}


def _degree_attained_deep(poly: NonclassicalPoly) -> bool:
    d = poly.degree()
    return any(
        m.k >= 1 and m.degree(poly.prime) == d for m in poly.terms
    )


def _check_scalar_degree(params: dict, limits: FeasibilityLimits):
    """Degree and depth laws for integer multiples of canonical polynomials,
    plus agreement of the representation degree with the derivative-based
    degree certificate.

    Checked per random polynomial f of degree d and depth k:
      * deg(p*f) <= max(d - p + 1, 0), with equality whenever the degree is
        attained by a term of positive depth index (multiplying by p shifts
        every such term down one layer, so only then is the drop tight —
        classical top-degree terms are killed outright);
      * depth(p*f) = k - 1 whenever k >= 1;
      * for units c in {1, ..., p-1}: degree and depth are unchanged;
      * (d+1)-fold derivatives of the table vanish, and when the d-fold
        exhaustive check is feasible it finds a witness, i.e. the degree is
        exactly d.

    Both sides run the exact basis walk of :mod:`rmlab.degreecheck`.  The
    upper-side check is labelled ``exhaustive`` when the nominal tuple
    count p^{n(d+1)} fits the cap and ``sampled`` otherwise.  The
    lower-side check stays gated by the nominal count p^{nd}, so the
    ``lower_side_checked`` tally is the number of polynomials under that
    gate.  ``trials`` is accepted and echoed but no longer read.
    """
    p = params["p"]
    nmax, depthmax = params["nmax"], params["depthmax"]
    count, seed = params["count"], params["seed"]
    rng = random.Random(seed)
    lim = limits
    cases = 0
    modes = {"exhaustive": 0, "sampled": 0, "lower_side_checked": 0}
    for case in range(count):
        cases += 1
        n = rng.randint(1, nmax)
        poly = random_canonical_poly(p, n, depthmax, rng)
        d, k = poly.degree(), poly.depth()

        pf = poly.scalar_mul(p)
        bound = max(d - p + 1, 0)
        err = None
        if pf.degree() > bound:
            err = f"deg(p*f) = {pf.degree()} exceeds {bound}"
        elif _degree_attained_deep(poly) and pf.degree() != bound:
            err = f"deg(p*f) = {pf.degree()} misses tight bound {bound}"
        elif k >= 1 and pf.depth() != k - 1:
            err = f"depth(p*f) = {pf.depth()}, expected {k - 1}"
        else:
            for c in range(1, p):
                cf = poly.scalar_mul(c)
                if cf.degree() != d or cf.depth() != k:
                    err = f"unit multiple {c} changed degree/depth"
                    break
        if err is None:
            word = poly.to_word(lim)
            # an unused draw: it keeps the seeded stream, and so the
            # printed output, the same as when it seeded a sampler
            rng.randrange(2**32)
            check = verify_degree_by_derivatives(word, d, lim)
            modes[check.mode] += 1
            if not check.ok:
                err = f"a ({d + 1})-fold derivative did not vanish"
            elif d >= 1 and (p**n) ** d <= lim.exhaustive_cap:
                modes["lower_side_checked"] += 1
                lower = verify_degree_by_derivatives(word, d - 1, lim)
                if lower.ok:
                    err = f"table has degree < {d}, representation says {d}"
        if err is not None:
            return (
                FAIL,
                cases,
                {"case": case, "poly": poly.to_text(), "reason": err},
                modes,
            )
    return PASS, cases, None, modes


def _check_htilde_uniform(params: dict, limits: FeasibilityLimits):
    """The block-product polynomial's value distribution flattens as the
    number of blocks grows: the exact max multiplicative deviation from
    uniform on U_{k+1} strictly decreases along the given r values, and
    (optionally) falls below a threshold at some r <= rlimit."""
    p, k, A = params["p"], params["k"], params["A"]
    rs = list(params["rs"])
    cases = 0
    devs = []
    for r in rs:
        devs.append(htilde_uniformity_deviation(r, A, k, p))
        cases += 1
    details = {"deviations": {str(r): frac_str(d) for r, d in zip(rs, devs)}}
    for (r1, d1), (r2, d2) in zip(zip(rs, devs), zip(rs[1:], devs[1:])):
        if not d2 < d1:
            return (
                FAIL,
                cases,
                {"r1": r1, "dev1": frac_str(d1), "r2": r2, "dev2": frac_str(d2)},
                details,
            )
    threshold = params.get("threshold")
    if threshold is not None:
        thr = parse_fraction(threshold)
        rlimit = params["rlimit"]
        hit = None
        r = rs[0]
        while r <= rlimit:
            cases += 1
            if htilde_uniformity_deviation(r, A, k, p) < thr:
                hit = r
                break
            r += 1
        details["threshold_hit_at_r"] = hit
        if hit is None:
            return (
                FAIL,
                cases,
                {"threshold": str(threshold), "rlimit": rlimit},
                details,
            )
    return PASS, cases, None, details


def _check_deg_coef(params: dict, limits: FeasibilityLimits):
    """Coefficient degree bounds in the digit expansion.

    For random lookup tables Gamma: F^{n1} x U_{k+1} -> F, the composition
    f1(x, z) = Gamma(x, htilde(z)) expands uniquely as

        sum over (d_0..d_k) of f_{d_0..d_k}(x) * prod_i W_i(z)^{d_i},

    and whenever the derivative checker certifies deg(f1) <= d, every
    coefficient polynomial must satisfy deg(f_{d_0..d_k}) <= d - A*sum(p^i d_i)
    (identically zero when the bound is negative).  Tables whose composition
    exceeds degree d do not meet the hypothesis and are skipped, not failed.
    ``trials`` is accepted and echoed but no longer read.
    """
    p, k, A, r = params["p"], params["k"], params["A"], params["r"]
    d, n1 = params["d"], params["n1"]
    count, seed = params["count"], params["seed"]
    rng = random.Random(seed)
    lim = limits

    ht = build_htilde(r, A, k, p, lim)
    nz = r * A
    mod = p ** (k + 1)
    size_x = p**n1
    checked = skipped = 0
    cases = 0
    for case in range(count):
        cases += 1
        gamma = [
            [rng.randrange(p) for _ in range(mod)] for _ in range(size_x)
        ]
        f1_values = []
        for xi in range(size_x):
            row = gamma[xi]
            f1_values.extend(row[w] for w in ht.values)
        f1 = Word(p, n1 + nz, FIELD, 0, tuple(f1_values))
        # an unused draw: it keeps the seeded stream, and so the printed
        # output, the same as when it seeded a sampler
        rng.randrange(2**32)
        cert = verify_degree_by_derivatives(iota_word(f1), d, lim)
        if not cert.ok:
            skipped += 1
            continue
        checked += 1
        # interpolate Gamma' over (x, w_0..w_k); w digits address U_{k+1}
        gp_values = []
        for xi in range(size_x):
            row = gamma[xi]
            for widx in range(p ** (k + 1)):
                # widx runs with w_0 as its most significant digit
                wdigits = index_to_point(p, k + 1, widx)
                value = sum(wd * p**i for i, wd in enumerate(wdigits))
                gp_values.append(row[value % mod])
        gp_word = Word(p, n1 + k + 1, FIELD, 0, tuple(gp_values))
        gp_poly = interpolate_classical(gp_word, lim)
        worst: dict[tuple[int, ...], int] = {}
        for mono, _c in gp_poly.terms.items():
            x_part, w_part = mono.exps[:n1], mono.exps[n1:]
            degx = sum(x_part)
            if degx > worst.get(w_part, -1):
                worst[w_part] = degx
        for w_part, degx in worst.items():
            weight = sum(
                e * p**i for i, e in enumerate(w_part)
            )
            bound = d - A * weight
            if degx > max(bound, -1) or (bound < 0 and degx >= 0):
                return (
                    FAIL,
                    cases,
                    {
                        "case": case,
                        "digit_tuple": list(w_part),
                        "coefficient_degree": degx,
                        "bound": bound,
                    },
                    {"checked": checked, "skipped": skipped},
                )
    return PASS, cases, None, {"checked": checked, "skipped": skipped}


def _check_apk(params: dict, limits: FeasibilityLimits):
    """A + (p-1)k <= A * p**k for all A >= 1, k >= 0, p prime in range."""
    amax, kmax, pmax = params["amax"], params["kmax"], params["pmax"]
    primes = [p for p in range(2, pmax + 1) if is_prime(p)]
    cases = 0
    for p in primes:
        for A in range(1, amax + 1):
            for k in range(kmax + 1):
                cases += 1
                if A + (p - 1) * k > A * p**k:
                    return (
                        FAIL,
                        cases,
                        {"p": p, "A": A, "k": k},
                        {},
                    )
    return PASS, cases, None, {}


def _check_thm1_desk(params: dict, limits: FeasibilityLimits):
    """Desk-scale probe of the constant-list-size phenomenon.

    Clause 1: the sampled maximum list size at radius delta(d) - eps is
    non-increasing across the given n values.  Clause 2 (optional): at any
    radius strictly inside half the minimum distance, every codeword's own
    ball contains exactly one codeword.  Observed maxima are reported; no
    claim is made about the true constant.
    """
    p, d = params["p"], params["d"]
    eps = parse_fraction(params["eps"])
    samples, seed = params["samples"], params["seed"]
    ns = list(params["ns"])
    eta = delta(p, d) - eps
    cases = 0
    maxima = []
    for n in ns:
        result = sampled_max_list_size(
            CodeParams(p, n, d), eta, samples, seed, limits=limits
        )
        maxima.append(result.count)
        cases += samples
    details = {"eta": frac_str(eta), "maxima": dict(zip(map(str, ns), maxima))}

    unique_failures = None
    if params.get("check_unique_decoding", True):
        half = delta(p, d) / 2
        for n in ns:
            code = CodeParams(p, n, d)
            inner = half - Fraction(1, 2 * p**n)  # largest grid value < half
            counts = _ball_counts(code, [], inner, limits, codeword_centers=True)
            bad = np.flatnonzero(counts != 1)
            if bad.size:
                cases += int(bad[0]) + 1
                unique_failures = {"n": n, "codeword_index": int(bad[0])}
                break
            cases += len(counts)
    if unique_failures is not None:
        return FAIL, cases, {"unique_decoding": unique_failures}, details

    for i in range(len(ns) - 1):
        if maxima[i + 1] > maxima[i]:
            return (
                FAIL,
                cases,
                {
                    "n_small": ns[i],
                    "max_small": maxima[i],
                    "n_large": ns[i + 1],
                    "max_large": maxima[i + 1],
                },
                details,
            )
    return PASS, cases, None, details


def _check_thm2_family(params: dict, limits: FeasibilityLimits):
    """The explicit family: exact size p^{M(...)} and every member at
    distance exactly delta(e)(1 - 1/p) from the zero word."""
    p, d, e, n = params["p"], params["d"], params["e"], params["n"]
    expect_size = tightness_family_size(p, d, e, n)
    radius = delta(p, e) * (1 - Fraction(1, p))
    zero = Word.zeros(p, n)
    cases = 0
    seen = set()
    for member in tightness_family(p, d, e, n, limits):
        cases += 1
        word = member.classical_field_word(limits)
        seen.add(word.values)
        nonzero = sum(1 for v in word.values if v)
        dist = Fraction(nonzero, p**n)
        if dist != radius:
            return (
                FAIL,
                cases,
                {
                    "member": member.to_text(),
                    "distance": frac_str(dist),
                    "expected": frac_str(radius),
                },
                {},
            )
    if len(seen) != expect_size or cases != expect_size:
        return (
            FAIL,
            cases,
            {"distinct": len(seen), "emitted": cases, "expected": expect_size},
            {},
        )
    return PASS, cases, None, {"size": expect_size, "radius": frac_str(radius)}


def _check_johnson_gap(params: dict, limits: FeasibilityLimits):
    """The exact minimum distance strictly beats the Johnson radius derived
    from it (numeric, tolerance 1e-9); optionally by at least min_gap."""
    p = params["p"]
    ds = list(params["ds"])
    min_gap = float(params["min_gap"]) if "min_gap" in params else None
    tol = params.get("tol", 1e-9)
    cases = 0
    gaps = {}
    for d in ds:
        cases += 1
        dist = delta(p, d)
        gap = float(dist) - johnson_radius(p, dist)
        gaps[str(d)] = round(gap, 9)
        threshold = min_gap if min_gap is not None else tol
        if not gap > threshold - 1e-9 or gap <= 0:
            return (
                FAIL,
                cases,
                {"p": p, "d": d, "gap": gap, "threshold": threshold},
                {"gaps": gaps},
            )
    return PASS, cases, None, {"gaps": gaps}


CHECKERS: dict[str, Callable[[dict, FeasibilityLimits], tuple]] = {
    "SZ1": _check_sz1,
    "DELTA_PRODUCT": _check_delta_product,
    "LUCAS": _check_lucas,
    "ML_UNIQUE": _check_ml_unique,
    "SCALAR_DEGREE": _check_scalar_degree,
    "HTILDE_UNIFORM": _check_htilde_uniform,
    "DEG_COEF": _check_deg_coef,
    "APK": _check_apk,
    "THM1_DESK": _check_thm1_desk,
    "THM2_FAMILY": _check_thm2_family,
    "JOHNSON_GAP": _check_johnson_gap,
}


def run_check(
    claim: str, params: dict, limits: FeasibilityLimits | None = None
) -> ClaimReport:
    """Execute one claim checker; infeasible ranges report, never crash."""
    if claim not in CHECKERS:
        raise ValueError(f"unknown claim {claim!r}")
    lim = resolve(limits)
    start = time.perf_counter()
    try:
        status, cases, counterexample, details = CHECKERS[claim](params, lim)
    except FeasibilityError as exc:
        return ClaimReport(
            claim=claim,
            parameters=params,
            status=INFEASIBLE,
            cases_checked=0,
            counterexample=None,
            details={"reason": str(exc)},
            elapsed_ms=(time.perf_counter() - start) * 1000,
        )
    return ClaimReport(
        claim=claim,
        parameters=params,
        status=status,
        cases_checked=cases,
        counterexample=counterexample,
        details=details,
        elapsed_ms=(time.perf_counter() - start) * 1000,
    )


# ---------------------------------------------------------------------------
# run_all: the default desk-scale suite and its config-file overrides

DEFAULT_RUNS: tuple[tuple[str, dict], ...] = (
    ("DELTA_PRODUCT", {"p": 2, "dmax": 30}),
    ("DELTA_PRODUCT", {"p": 3, "dmax": 30}),
    ("DELTA_PRODUCT", {"p": 5, "dmax": 30}),
    ("DELTA_PRODUCT", {"p": 7, "dmax": 30}),
    ("SZ1", {"p": 2, "dmax": 2, "n1max": 2, "n2max": 2}),
    ("SZ1", {"p": 3, "dmax": 2, "n1max": 1, "n2max": 1}),
    ("LUCAS", {"p": 2, "r": 14, "A": 1, "k": 2}),
    ("LUCAS", {"p": 2, "r": 7, "A": 2, "k": 2}),
    ("LUCAS", {"p": 2, "r": 4, "A": 3, "k": 1}),
    ("LUCAS", {"p": 3, "r": 9, "A": 1, "k": 1}),
    ("LUCAS", {"p": 3, "r": 3, "A": 3, "k": 1}),
    ("ML_UNIQUE", {"p": 2, "n": 3, "count": 50, "seed": 11}),
    ("ML_UNIQUE", {"p": 3, "n": 2, "count": 200, "seed": 12, "exhaustive_n": 1}),
    ("SCALAR_DEGREE", {"p": 2, "nmax": 3, "depthmax": 2, "count": 500, "seed": 1, "trials": 10000}),
    ("SCALAR_DEGREE", {"p": 3, "nmax": 3, "depthmax": 2, "count": 500, "seed": 2, "trials": 10000}),
    ("HTILDE_UNIFORM", {"p": 2, "k": 1, "A": 1, "rs": [2, 4, 8, 16], "threshold": "1/10", "rlimit": 64}),
    ("DEG_COEF", {"p": 2, "k": 1, "A": 1, "r": 4, "d": 4, "n1": 2, "count": 50, "seed": 0, "trials": 10000}),
    ("APK", {"amax": 100, "kmax": 20, "pmax": 97}),
    ("THM1_DESK", {"p": 2, "d": 1, "eps": "1/16", "samples": 200, "seed": 0, "ns": [3, 4, 5]}),
    ("THM2_FAMILY", {"p": 2, "d": 2, "e": 1, "n": 5}),
    ("THM2_FAMILY", {"p": 3, "d": 3, "e": 2, "n": 4}),
    ("JOHNSON_GAP", {"p": 2, "ds": [2], "min_gap": "0.10"}),
    ("JOHNSON_GAP", {"p": 2, "ds": [3, 4, 5, 6]}),
)


def parse_run_config(text: str) -> dict:
    """key=value config: ``claims=A,B`` selects claims, ``skip=A,B`` drops
    them, ``p=2`` keeps only entries with that field prime, and
    ``CLAIM.param=value`` overrides a parameter on every entry of CLAIM
    (values parse as JSON when possible, else stay strings)."""
    config = {"claims": None, "skip": set(), "p": None, "overrides": {}}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "claims":
            config["claims"] = {c.strip() for c in value.split(",") if c.strip()}
        elif key == "skip":
            config["skip"] = {c.strip() for c in value.split(",") if c.strip()}
        elif key == "p":
            config["p"] = int(value)
        elif "." in key:
            claim, param = key.split(".", 1)
            try:
                parsed = json.loads(value)
            except json.JSONDecodeError:
                parsed = value
            config["overrides"].setdefault(claim, {})[param] = parsed
        else:
            raise ValueError(f"unknown config key {key!r}")
    return config


def planned_runs(config: dict | None = None) -> list[tuple[str, dict]]:
    runs = []
    config = config or {}
    for claim, params in DEFAULT_RUNS:
        if config.get("claims") is not None and claim not in config["claims"]:
            continue
        if claim in config.get("skip", set()):
            continue
        if config.get("p") is not None and params.get("p") not in (None, config["p"]):
            continue
        merged = dict(params)
        merged.update(config.get("overrides", {}).get(claim, {}))
        runs.append((claim, merged))
    return runs


def run_all(
    config: dict | None = None, limits: FeasibilityLimits | None = None
) -> list[ClaimReport]:
    """Run every configured claim; the aggregate passes iff all pass."""
    return [run_check(claim, params, limits) for claim, params in planned_runs(config)]


def reports_to_csv(reports: Sequence[ClaimReport]) -> str:
    lines = ["claimId,status,casesChecked,elapsedMs"]
    for rep in reports:
        lines.append(
            f"{rep.claim},{rep.status},{rep.cases_checked},{rep.elapsed_ms:.1f}"
        )
    return "\n".join(lines) + "\n"
