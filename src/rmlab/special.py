"""Digit polynomials, elementary-symmetric realizations, and the block
product construction h~.

The domain is F_p^{rA} with coordinates grouped into r blocks of A
variables.  Writing Z_i for the integer product of the natural maps of
block i's coordinates, the construction

    htilde(z) = (Z_1 + ... + Z_r) / p^{k+1}   (mod 1)

is exactly a sum of r canonical monomials at depth index k, hence a
nonclassical polynomial of degree A + (p-1)k and depth k.  W_i denotes the
i-th base-p digit of W = sum Z_i mod p^{k+1}; on the Boolean cube those
digits coincide with the elementary symmetric polynomials S_{p^i} of the
Z values (a Lucas-theorem identity), which is what the LUCAS claim checks.

The exact value distribution of htilde is computed by dynamic programming:
the distribution of one block's product mod p^{k+1}, convolved additively
r times.  Counts are exact integers over a denominator of p^{rA}.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .limits import FeasibilityLimits, resolve
from .polynomial import Monomial, NonclassicalPoly
from .torus import require_prime
from .words import FIELD, Word, monomial_table


def _require_shape(r: int, A: int, k: int, p: int) -> None:
    require_prime(p)
    if r < 1 or A < 1 or k < 0:
        raise ValueError("need r >= 1, A >= 1, k >= 0")


def htilde_poly(r: int, A: int, k: int, p: int) -> NonclassicalPoly:
    """h~ as a canonical polynomial: r block monomials at depth index k."""
    _require_shape(r, A, k, p)
    n = r * A
    terms = {}
    for i in range(r):
        exps = tuple(1 if i * A <= pos < (i + 1) * A else 0 for pos in range(n))
        terms[Monomial(exps, k)] = 1
    return NonclassicalPoly(p, n, terms)


def build_htilde(
    r: int, A: int, k: int, p: int, limits: FeasibilityLimits | None = None
) -> Word:
    """Dense torus-valued table of h~ over F_p^{rA}, at depth k."""
    require_prime(p)
    lim = resolve(limits)
    lim.check_table(p ** (r * A), "htilde table")
    return htilde_poly(r, A, k, p).to_word(lim)


def lucas_digit_words(
    r: int, A: int, k: int, p: int, limits: FeasibilityLimits | None = None
) -> tuple[list[Word], list[Word]]:
    """Digit words W_0..W_k and their symmetric realizations W'_0..W'_k.

    W_i(z) is the i-th base-p digit of (Z_1 + ... + Z_r) mod p^{k+1} with
    integer block products; W'_i(z) evaluates S_{p^i} at the mod-p block
    products.  Both are returned as dense field words over F_p^{rA}.  The
    two families agree on {0,1}^{rA}.  Having r < p^k is allowed; the top
    digits are then simply never reached on the cube.
    """
    require_prime(p)
    lim = resolve(limits)
    n = r * A
    size = p**n
    lim.check_table(size, "digit word tables")
    poly = htilde_poly(r, A, k, p)
    w = np.array(poly.to_word(lim).values, dtype=np.int64)
    z_mod = [monomial_table(p, n, m.exps, p) for m in poly.terms]

    digit_words = []
    for i in range(k + 1):
        digits = (w // p**i) % p
        digit_words.append(Word(p, n, FIELD, 0, tuple(int(v) for v in digits)))

    # elementary symmetric values e_1..e_{p^k} of the Z column vectors,
    # via the running product of (1 + Z_i t) coefficient rows
    top = p**k
    coeffs = np.zeros((size, top + 1), dtype=np.int64)
    coeffs[:, 0] = 1
    for z in z_mod:
        coeffs[:, 1:] = (coeffs[:, 1:] + coeffs[:, :-1] * z[:, None]) % p
    sym_words = []
    for i in range(k + 1):
        ell = p**i
        vals = coeffs[:, ell] if ell <= top else np.zeros(size, dtype=np.int64)
        sym_words.append(Word(p, n, FIELD, 0, tuple(int(v) for v in vals)))
    return digit_words, sym_words


def block_product_distribution(A: int, k: int, p: int) -> list[int]:
    """Counts over Z_{p^{k+1}} of the integer product of A uniform naturals."""
    require_prime(p)
    mod = p ** (k + 1)
    dist = [0] * mod
    dist[1 % mod] = 1
    for _ in range(A):
        nxt = [0] * mod
        for v, cnt in enumerate(dist):
            if not cnt:
                continue
            for u in range(p):
                nxt[v * u % mod] += cnt
        dist = nxt
    return dist


def htilde_value_distribution(r: int, A: int, k: int, p: int) -> list[int]:
    """Exact counts of htilde values (numerators mod p^{k+1}) over F_p^{rA}.

    Computed without enumerating the domain: one block's product
    distribution, additively convolved r times.  Total mass is p^{rA}.
    """
    _require_shape(r, A, k, p)
    mod = p ** (k + 1)
    block = block_product_distribution(A, k, p)
    dist = [0] * mod
    dist[0] = 1
    for _ in range(r):
        nxt = [0] * mod
        for v, cnt in enumerate(dist):
            if not cnt:
                continue
            for u, cnt2 in enumerate(block):
                if cnt2:
                    nxt[(v + u) % mod] += cnt * cnt2
        dist = nxt
    return dist


def htilde_uniformity_deviation(r: int, A: int, k: int, p: int) -> Fraction:
    """Max multiplicative deviation of htilde's distribution from uniform:
    max_b |Pr[htilde = b] * p^{k+1} - 1|, exact."""
    mod = p ** (k + 1)
    counts = htilde_value_distribution(r, A, k, p)
    total = p ** (r * A)
    return max(
        abs(Fraction(c * mod, total) - 1) for c in counts
    )
