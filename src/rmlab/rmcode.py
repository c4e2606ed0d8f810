"""Reed-Muller codes over prime fields at desk scale.

RM_p(n, d) is the evaluation code of all degree <= d polynomials (with
individual exponents <= p-1) on F_p^n.  This module provides the exact
minimum-distance formula, the Johnson radius, exhaustive codeword
enumeration, exact-rational distance and ball searches, sampled maximum
list sizes, and the explicit family witnessing list sizes exp(c n^{d-e})
at radius delta(e)(1 - 1/p).

Every ball search is one exact integer transform, ``_ball_hits``: a codeword is an affine
function b + a.x plus a coset representative Q of degree >= 2 (the low digits of its index),
and one butterfly per coordinate over the one-hot table of g - Q gives g's agreement with
every codeword of Q's coset, in index order.  Centers and cosets are batched on one axis
and chunked under a fixed budget; members are built from hit indices on read and written to
JSON straight from coefficient rows.  ``codeword_blocks`` streams the code itself (per block,
a narrow-integer table of all combinations of the last basis rows plus one high row, mod p)
for the scans that need every table: minimum distance, SZ1's pair scan, weak-regularity
families and tightness weights.

All distances and radii are exact rationals with denominator p**n; a
radius given as a decimal string is converted exactly, so boundary
comparisons never depend on float rounding.  Floating point appears only
in the Johnson radius.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

import numpy as np

from .limits import FeasibilityLimits, resolve
from .polynomial import NonclassicalPoly, classical_from_coeffs, mul_classical
from .torus import require_prime
from .words import FIELD, Word, digit_columns, index_digits, monomial_table, random_field_word


def delta(p: int, d: int) -> Fraction:
    """Normalized minimum distance of RM_p(n, d) for n large enough:
    writing d = a(p-1) + b with 0 <= b < p-1, this is (1/p^a)(1 - b/p)."""
    require_prime(p)
    if d < 0:
        raise ValueError("degree must be >= 0")
    a, b = divmod(d, p - 1)
    return Fraction(1, p**a) * (1 - Fraction(b, p))


def johnson_radius(q: int, dist: Fraction | float) -> float:
    """Generic list-decoding radius from minimum distance alone:
    (1 - 1/q)(1 - sqrt(1 - q*dist/(q-1)))."""
    if q < 2:
        raise ValueError("alphabet size must be >= 2")
    dist = Fraction(dist)
    radicand = 1 - Fraction(q, q - 1) * dist
    if radicand < 0:
        raise ValueError(f"distance {dist} exceeds (q-1)/q; radicand negative")
    return (1 - 1 / q) * (1 - math.sqrt(float(radicand)))


@lru_cache(maxsize=None)
def monomial_basis(p: int, n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Monomials with individual exponents <= p-1 and total degree <= d,
    sorted by (total degree, exponent tuple).  This order is the fixed
    enumeration basis for coefficient vectors."""
    out = [
        exps
        for exps in itertools.product(range(p), repeat=n)
        if sum(exps) <= d
    ]
    out.sort(key=lambda e: (sum(e), e))
    return tuple(out)


@dataclass(frozen=True)
class CodeParams:
    """The (p, n, d) triple identifying RM_p(n, d)."""

    p: int
    n: int
    d: int

    def __post_init__(self):
        require_prime(self.p)
        if self.n < 1:
            raise ValueError("need n >= 1")
        if self.d < 0:
            raise ValueError("need d >= 0")

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        return monomial_basis(self.p, self.n, self.d)

    @property
    def num_monomials(self) -> int:
        return len(self.basis)

    @property
    def codeword_count(self) -> int:
        return self.p**self.num_monomials

    @property
    def block_length(self) -> int:
        return self.p**self.n

    def check_feasible(self, limits: FeasibilityLimits | None = None) -> None:
        lim = resolve(limits)
        lim.check_table(self.block_length, "codeword table")
        lim.check_cases(self.codeword_count, "codeword enumeration")


def _basis_matrix(params: CodeParams) -> np.ndarray:
    p, n = params.p, params.n
    return np.stack([monomial_table(p, n, exps, p) for exps in params.basis])


def _coeff_rows(params: CodeParams, idx: np.ndarray) -> np.ndarray:
    """Coefficient rows for the int64 codeword indices ``idx``.

    Index c maps to the base-p digits of c with the first basis monomial
    as the most significant digit (coefficient vectors in lexicographic
    order over the monomial basis)."""
    return index_digits(params.p, params.num_monomials, idx).T


_HIT_BUDGET = 1 << 24  # entries of one working array: a codeword block, or ball-search counts


def _add_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a + b) mod p for unsigned residues: where a + b < p, a + b - p wraps past
    the top of the range and the minimum is a + b.  About 4x faster than ``%``."""
    total = a + b
    return np.minimum(total, total - total.dtype.type(p), out=total)


def _combination_blocks(rows: np.ndarray, p: int, size: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, block): every combination sum_i c_i * rows[i] mod p, in the index order
    of the digits c (rows[0] the most significant), in the narrowest dtype holding 2(p-1).
    A block of p**L combinations, the most within ``size``, is ``lo`` (all combinations of the
    last L rows) plus one high row, mod p.  The next high row adds the last t + 1 high rows,
    where the next block ends in t zero digits: memory is O(p**L * row length) for any count."""
    m, width = rows.shape
    low = next(k for k in range(m, -1, -1) if p**k <= size)
    dtype = np.min_scalar_type(2 * (p - 1))
    lo = np.zeros((1, width), dtype)
    for row in rows[m - low :]:  # each new row is the least significant digit so far
        # v * row in int64 before the narrow cast: in uint8, 16 * 16 already wraps
        multiples = (np.arange(p)[:, None] * row % p).astype(dtype)
        lo = _add_mod(lo[:, None, :], multiples, p).reshape(-1, width)
    carry = (np.cumsum(rows[: m - low][::-1], axis=0) % p).astype(dtype)
    high = np.zeros(width, dtype)
    for h in range(p ** (m - low)):
        if h:
            zeros = next(t for t in range(m) if h % p ** (t + 1))
            high = _add_mod(high, carry[zeros], p)
        yield h * p**low, _add_mod(lo, high, p)


def codeword_blocks(
    params: CodeParams,
    limits: FeasibilityLimits | None = None,
    block_size: int = 4096,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (start_index, coefficient rows, evaluation rows) lazily in index order, in the
    narrowest dtype holding 2(p-1), blocks of the most codewords within ``block_size`` and
    _HIT_BUDGET // p**n that is a power of p: :func:`_combination_blocks` over the basis
    rows, with each row's digits beside its evaluations."""
    params.check_feasible(limits)
    m = params.num_monomials
    size = max(1, min(block_size, _HIT_BUDGET // params.block_length))
    rows = np.concatenate([np.eye(m, dtype=np.int64), _basis_matrix(params)], axis=1)
    for start, block in _combination_blocks(rows, params.p, size):
        yield start, block[:, :m], block[:, m:]


def codeword(
    params: CodeParams, index: int, limits: FeasibilityLimits | None = None
) -> Word:
    """The codeword at position ``index`` of :func:`enumerate_code`'s order."""
    params.check_feasible(limits)
    if not 0 <= index < params.codeword_count:
        raise ValueError(f"codeword index {index} out of range")
    table = _coeff_rows(params, np.array([index], dtype=np.int64)) @ _basis_matrix(params) % params.p
    return Word(params.p, params.n, FIELD, 0, tuple(table[0].tolist()))


def poly_from_coeff_row(params: CodeParams, row: Sequence[int]) -> NonclassicalPoly:
    coeffs = {
        exps: int(c) for exps, c in zip(params.basis, row) if int(c) % params.p
    }
    return classical_from_coeffs(params.p, params.n, coeffs)


def enumerate_code(
    params: CodeParams,
    limits: FeasibilityLimits | None = None,
    block_size: int = 4096,
) -> Iterator[tuple[NonclassicalPoly, Word]]:
    """Every codeword exactly once, in coefficient-lex order."""
    for _, coeffs, tables in codeword_blocks(params, limits, block_size):
        for row, table in zip(coeffs, tables):
            yield (
                poly_from_coeff_row(params, row),
                Word(params.p, params.n, FIELD, 0, tuple(int(v) for v in table)),
            )


def distance(u: Word, v: Word) -> Fraction:
    """Normalized Hamming distance, exact with denominator p**n."""
    if not u.same_shape(v):
        raise ValueError("word shape/alphabet mismatch")
    disagree = sum(1 for a, b in zip(u.values, v.values) if a != b)
    return Fraction(disagree, u.length)


def min_distance_bruteforce(
    params: CodeParams, limits: FeasibilityLimits | None = None
) -> Fraction:
    """Exact minimum distance by brute force.

    Uses linearity: the minimum distance equals the minimum normalized
    weight over nonzero codewords (the difference of two codewords is a
    codeword).
    """
    if params.codeword_count < 2:
        raise ValueError("code has fewer than two codewords")
    best = params.block_length
    for start, _, tables in codeword_blocks(params, limits):
        weights = np.count_nonzero(tables, axis=1)
        if start == 0:
            weights = weights[1:]  # skip the zero codeword
        if weights.size:
            best = min(best, int(weights.min()))
    return Fraction(best, params.block_length)


@dataclass(frozen=True, eq=False)
class ListResult:
    """Codewords within an exact radius of a received word, as increasing
    int64 codeword indices; ``members`` builds the polynomials on first read."""

    params: CodeParams
    center: Word
    radius: Fraction
    indices: np.ndarray

    @property
    def count(self) -> int:
        return len(self.indices)

    @cached_property
    def members(self) -> tuple[NonclassicalPoly, ...]:
        rows = _coeff_rows(self.params, self.indices)
        return tuple(poly_from_coeff_row(self.params, row) for row in rows)

    def to_json(self) -> str:
        # each member's to_text() straight from its digits: depth-0 terms in exponent-lex order
        basis = self.params.basis
        order = sorted(range(len(basis)), key=basis.__getitem__)
        terms = [f"e={','.join(map(str, basis[j]))} k=0\n" for j in order]
        header = f"p={self.params.p} n={self.params.n}\n"
        rows = _coeff_rows(self.params, self.indices)[:, order].tolist()
        payload = {
            "p": self.params.p,
            "n": self.params.n,
            "d": self.params.d,
            "eta": f"{self.radius.numerator}/{self.radius.denominator}",
            "count": self.count,
            "members": [header + "".join(f"c={c} {t}" for c, t in zip(row, terms) if c) for row in rows],
        }
        return json.dumps(payload, sort_keys=True)


def _affine_agreements(h: np.ndarray, p: int, slopes: int, dtype) -> np.ndarray:
    """(p, slopes**n, R) counts: out[b, a, r] = #{x : h[x, r] = b + a.x mod p} for a (p**n, R)
    table of residues and every a with digits below ``slopes`` (p, or 1 for a = 0 alone),
    indexed by its digits (a_n, ..., a_1), a_n most significant.  One integer butterfly per
    coordinate x_k: the running count in[v, x_k, ...] of h - a.x = v over the coordinates
    done so far becomes out[b, a_k, ...] = sum_x in[b + a_k x, x, ...].  The first step reads
    the one-hot in[v, x_1] = [h(x_1, ...) = v] straight from h, so no array holds more than
    slopes * p**n counts per row."""
    length, rows = h.shape
    b, a = np.arange(p)[:, None], np.arange(slopes)  # (b + a * x) % p: the (p, slopes) shifts
    h = h.reshape(p, -1, rows)  # (x_1, later x, r)
    out = np.zeros((p, slopes) + h.shape[1:], dtype)
    for x in range(p):
        out += h[x] == ((b + a * x) % p).astype(h.dtype)[:, :, None, None]
    done, later = slopes, h.shape[1]
    while later > 1:
        later //= p
        s = out.reshape(p, done, p, later, rows)  # (v, a digits done, x_k, later x, r)
        out = np.repeat(s[:, None, :, 0], slopes, axis=1)  # x_k = 0 adds in[b] for every a_k
        for x in range(1, p):
            out += s[:, :, x][(b + a * x) % p]
        done *= slopes
    return out.reshape(p, done, rows)


def _ball_hits(
    params: CodeParams, centers: Sequence[Word], eta: Fraction, limits=None
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (lo, q, hits) per chunk: hits[k, i, j] says whether codeword k * cosets + q + j
    is within eta of center lo + i.  Every codeword is an affine function b + a.x plus a coset
    representative Q, a combination of the basis monomials of degree >= 2 whose digits are
    the low digits of its index (``cosets`` of them).  So for each row (center g, Q) the
    agreements of g - Q with all p**(n+1) affine functions, k = (b, a_n, ..., a_1) in index
    order, decide the ball over Q's coset; at d = 0 only a = 0 (k = b).  Rows are batched on
    one axis, in chunks whose counts (p**(n+1) per row, p**n at d = 0; uint16 while
    p**n < 2**16) stay within _HIT_BUDGET entries."""
    if any(g.kind != FIELD or (g.prime, g.nvars) != (params.p, params.n) for g in centers):
        raise ValueError("center must be a field word on the code's domain")
    params.check_feasible(limits)
    p, n, length = params.p, params.n, params.block_length
    eta = Fraction(eta)
    # dist <= eta  <=>  disagrees * eta.den <= eta.num * p**n  <=>  agrees >= need, exactly;
    # need stays a Python int, so no eta overflows the count dtype
    need = length - eta.numerator * length // eta.denominator
    dtype = np.uint16 if length < 1 << 16 else np.uint32
    slopes = p if params.d else 1  # at d = 0 the slice a = 0 alone
    rows = max(1, _HIT_BUDGET // (slopes * length))
    words = np.array([g.values for g in centers], np.min_scalar_type(2 * (p - 1))).reshape(-1, length)
    words = np.ascontiguousarray(words.T)  # (length, centers): points first, like h
    # the blocks hold -Q mod p: combinations of the negated rows of degree >= 2
    for q, negated in _combination_blocks(-_basis_matrix(params)[n + 1 :] % p, p, rows):
        span, step = len(negated), rows // len(negated)  # step centers x span cosets per chunk
        negated = np.ascontiguousarray(negated.T)
        for lo in range(0, words.shape[1], step):
            h = _add_mod(words[:, lo : lo + step, None], negated[:, None, :], p)
            agree = _affine_agreements(h.reshape(length, -1), p, slopes, dtype)
            yield lo, q, (agree >= need).reshape(-1, *h.shape[1:])


def list_in_ball(
    params: CodeParams,
    g: Word,
    eta: Fraction,
    limits: FeasibilityLimits | None = None,
) -> ListResult:
    """Exactly the codewords f with dist(f, g) <= eta."""
    eta = Fraction(eta)
    # one center: the chunks come in coset order, and rows (k, Q) are index order
    hits = np.concatenate([h[:, 0] for _, _, h in _ball_hits(params, [g], eta, limits)], axis=1)
    return ListResult(params, g, eta, np.flatnonzero(hits))


def ball_count(
    params: CodeParams,
    g: Word,
    eta: Fraction,
    limits: FeasibilityLimits | None = None,
) -> int:
    """Count of codewords within eta of g (no member materialization)."""
    return int(_ball_counts(params, [g], eta, limits)[0])


def _ball_counts(params, centers, eta, limits=None, codeword_centers=False) -> np.ndarray:
    """Ball size around each of ``centers``, then with ``codeword_centers`` around every
    codeword in index order: each is the zero word's, since c + f is within eta of c
    exactly when f is within eta of 0."""
    params.check_feasible(limits)  # before sizing the counts by the code
    if codeword_centers:
        pairs = (len(centers) + params.codeword_count) * params.codeword_count
        resolve(limits).check_cases(pairs, "codeword-center ball scan")
        centers = [*centers, Word.zeros(params.p, params.n)]
    counts = np.zeros(len(centers), dtype=np.int64)
    for lo, _, hits in _ball_hits(params, centers, eta, limits):
        counts[lo : lo + hits.shape[1]] += np.count_nonzero(hits, axis=(0, 2))
    if codeword_centers:
        counts = np.concatenate([counts[:-1], np.full(params.codeword_count, counts[-1])])
    return counts


@dataclass(frozen=True)
class MaxListResult:
    count: int
    center: Word
    label: str


def sampled_max_list_size(
    params: CodeParams,
    eta: Fraction,
    samples: int,
    seed: int,
    include_codeword_centers: bool = False,
    limits: FeasibilityLimits | None = None,
) -> MaxListResult:
    """Sampled lower bound on the maximum list size.

    Centers are ``samples`` seeded-PRNG random words (Python's
    ``random.Random(seed)``, one word after another in sampling order),
    optionally followed by every codeword's own table.  Deterministic given
    the seed; ties resolve to the earliest center.
    """
    if samples < 0:
        raise ValueError("samples must be >= 0")
    if not samples and not include_codeword_centers:
        raise ValueError("no centers requested")
    rng = random.Random(seed)
    words = [random_field_word(params.p, params.n, rng, limits) for _ in range(samples)]
    counts = _ball_counts(params, words, eta, limits, include_codeword_centers)
    best = int(counts.argmax())
    if best < samples:
        return MaxListResult(int(counts[best]), words[best], f"sample:{best}")
    j = best - samples
    return MaxListResult(int(counts[best]), codeword(params, j, limits), f"codeword:{j}")


def _tightness_layout(p: int, d: int, e: int) -> tuple[int, int, int]:
    """(a, b, lead position 0-based) for 0 <= e < d; members are codewords
    of RM(n, d) only then.  Over F_2 the dictator product
    prod_j (x_{a+1} - j) is empty for every e (b = 0 always), so the slot
    it would occupy is dropped and x_{a+1} leads; over larger fields the
    slot is kept even when this particular e has b = 0."""
    if not 0 <= e < d:
        raise ValueError("need 0 <= e < d")
    a, b = divmod(e, p - 1)
    lead = a if p == 2 else a + 1
    return a, b, lead


def tightness_family_size(p: int, d: int, e: int, n: int) -> int:
    _, _, lead = _tightness_layout(p, d, e)
    return p ** len(monomial_basis(p, n - lead - 1, d - e))


def _tightness_prefix(p: int, d: int, e: int, n: int, limits=None) -> tuple[NonclassicalPoly, int]:
    """The family's fixed factor and its lead position, after the family's
    checks in this order: e < d, n >= lead + 1, the case cap."""
    require_prime(p)
    a, b, lead = _tightness_layout(p, d, e)
    if n < lead + 1:
        raise ValueError(f"need n >= {lead + 1} for e = {e} over F_{p}")
    resolve(limits).check_cases(tightness_family_size(p, d, e, n), "tightness family")
    prefix = classical_from_coeffs(p, n, {(0,) * n: 1})
    for i in range(a):
        exps = tuple(p - 1 if pos == i else 0 for pos in range(n))
        factor = classical_from_coeffs(p, n, {exps: 1, (0,) * n: p - 1})
        prefix = mul_classical(prefix, factor)
    for j in range(1, b + 1):
        exps = tuple(1 if pos == a else 0 for pos in range(n))
        factor = classical_from_coeffs(p, n, {exps: 1, (0,) * n: (-j) % p})
        prefix = mul_classical(prefix, factor)
    return prefix, lead


def tightness_weights(p: int, d: int, e: int, n: int, limits: FeasibilityLimits | None = None) -> np.ndarray:
    """Nonzero count of each :func:`tightness_family` member, in its order,
    from tables alone: member i is prefix * (x_L + Q_i) mod p, with Q_i the
    i-th codeword of RM_p(n - L, d - e) (one of the p constants when n = L)
    repeated over the leading p**L points."""
    prefix, lead = _tightness_prefix(p, d, e, n, limits)
    table = np.array(prefix.classical_field_word(limits).values)
    if n == lead + 1:
        blocks = [(0, None, np.arange(p).reshape(p, 1))]
    else:
        q_code = CodeParams(p, n - lead - 1, d - e)
        blocks = codeword_blocks(q_code, limits, max(1, _HIT_BUDGET // p**n))
    x_lead = digit_columns(p, n)[lead]
    return np.concatenate([
        np.count_nonzero(table * ((x_lead + np.tile(q, p ** (lead + 1))) % p) % p, axis=1)
        for _, _, q in blocks
    ])


def tightness_family(
    p: int,
    d: int,
    e: int,
    n: int,
    limits: FeasibilityLimits | None = None,
) -> Iterator[NonclassicalPoly]:
    """The explicit family attaining list sizes exp(c n^{d-e}) at radius
    delta(e)(1 - 1/p): products

        (prod_{i<=a} (x_i^{p-1} - 1)) (prod_{j<=b} (x_{a+1} - j))
            (x_L + Q(x_{L+1}, ..., x_n))

    over all Q of degree <= d-e, where e = a(p-1) + b and the lead index L
    is a+1 over F_2 (the dictator product is empty for every e, so its slot
    is dropped) and a+2 otherwise.  Every member is nonzero with
    probability exactly delta(e)(1 - 1/p); one member is emitted per Q, in
    coefficient-lex order over Q's monomial basis.  Members have degree
    e + max(1, d - e), so e < d is required: only then are they codewords
    of RM(n, d).
    """
    prefix, lead = _tightness_prefix(p, d, e, n, limits)
    x_lead = tuple(1 if pos == lead else 0 for pos in range(n))
    basis = [(0,) * (lead + 1) + exps for exps in monomial_basis(p, n - lead - 1, d - e)]
    for combo in itertools.product(range(p), repeat=len(basis)):
        tail = {x_lead: 1} | {exps: c for exps, c in zip(basis, combo) if c}
        yield mul_classical(prefix, classical_from_coeffs(p, n, tail))
