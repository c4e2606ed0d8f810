"""Canonical representation of torus-valued polynomials over a prime field.

A polynomial F_p^n -> T is stored in its unique zero-shift monomial form

    f(x) = sum over terms  c * |x_1|^{e_1} ... |x_n|^{e_n} / p^{k+1}  (mod 1)

with exponents e_i in {0, ..., p-1}, depth index k >= 0, and coefficients
c in {1, ..., p-1} (absent terms have coefficient 0).  The products of the
natural maps |x_i| are taken over the integers, not mod p.  A term
contributes degree sum(e) + k*(p-1); the depth of f is the largest k that
appears.  Depth-0 polynomials are exactly the classical ones, i.e. iota of
an ordinary polynomial over F_p.

Constant terms are only allowed at depth 0: a constant at depth k >= 1 is a
nonzero shift, which this representation deliberately excludes (shifts are
normalized away).  ``canonical_fit`` therefore rejects tables like the
constant 1/4 over F_2 with :class:`NotAPolynomialError`.

The zero polynomial has degree 0 by convention.

Text format (one polynomial per stream): a header line ``p=<p> n=<n>``,
then one line per term ``c=<coeff> e=<e_1>,...,<e_n> k=<depth>``, terms
sorted by (k descending, exponent tuple lexicographic).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .limits import FeasibilityLimits, resolve
from .torus import TorusValue, require_prime
from .words import FIELD, TORUS, Word, monomial_table


class NotAPolynomialError(ValueError):
    """The table is not a zero-shift polynomial at the allowed depth."""


@dataclass(frozen=True, order=True)
class Monomial:
    """Exponent vector plus depth index; the key of one canonical term."""

    exps: tuple[int, ...]
    k: int

    def degree(self, p: int) -> int:
        return sum(self.exps) + self.k * (p - 1)


def _validate_monomial(p: int, n: int, m: Monomial) -> None:
    if len(m.exps) != n:
        raise ValueError(f"monomial has {len(m.exps)} exponents, expected {n}")
    if any(not 0 <= e <= p - 1 for e in m.exps):
        raise ValueError(f"exponents must lie in 0..{p-1}: {m.exps}")
    if m.k < 0:
        raise ValueError("depth index must be >= 0")
    if m.k > 0 and not any(m.exps):
        raise ValueError(
            "constant terms are only allowed at depth 0 (zero-shift form)"
        )


class NonclassicalPoly:
    """Immutable polynomial in canonical zero-shift monomial form."""

    __slots__ = ("prime", "nvars", "terms", "_sorted")

    def __init__(self, p: int, n: int, terms: Mapping[Monomial, int] | Iterable):
        require_prime(p)
        if n < 1:
            raise ValueError("need at least one variable")
        clean: dict[Monomial, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for key, c in items:
            m = key if isinstance(key, Monomial) else Monomial(tuple(key[0]), key[1])
            _validate_monomial(p, n, m)
            c = c % p
            if c == 0:
                continue
            if m in clean:
                raise ValueError(f"duplicate monomial {m}")
            clean[m] = c
        object.__setattr__(self, "prime", p)
        object.__setattr__(self, "nvars", n)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(
            self,
            "_sorted",
            tuple(sorted(clean.items(), key=lambda t: (-t[0].k, t[0].exps))),
        )

    def __setattr__(self, *args):
        raise AttributeError("NonclassicalPoly is immutable")

    def __reduce__(self):
        return type(self), (self.prime, self.nvars, self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NonclassicalPoly)
            and self.prime == other.prime
            and self.nvars == other.nvars
            and self._sorted == other._sorted
        )

    def __hash__(self) -> int:
        return hash((self.prime, self.nvars, self._sorted))

    def __repr__(self) -> str:
        if not self.terms:
            return f"NonclassicalPoly(p={self.prime}, n={self.nvars}, 0)"
        parts = [
            f"{c}*x^{list(m.exps)}/p^{m.k + 1}" for m, c in self._sorted
        ]
        return f"NonclassicalPoly(p={self.prime}, n={self.nvars}, {' + '.join(parts)})"

    # ---- basic structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(m.degree(self.prime) for m in self.terms)

    def depth(self) -> int:
        if not self.terms:
            return 0
        return max(m.k for m in self.terms)

    def is_classical(self) -> bool:
        return self.depth() == 0

    # ---- evaluation ------------------------------------------------------

    def evaluate(self, x: Sequence[int]) -> TorusValue:
        if len(x) != self.nvars:
            raise ValueError(
                f"point has {len(x)} coordinates, polynomial has {self.nvars}"
            )
        p = self.prime
        point = [xi % p for xi in x]
        big_k = self.depth()
        mod = p ** (big_k + 1)
        acc = 0
        for m, c in self.terms.items():
            prod = c * p ** (big_k - m.k)
            for xi, e in zip(point, m.exps):
                if e:
                    prod = prod * xi**e % mod
            acc = (acc + prod) % mod
        return TorusValue(p, acc, big_k)

    def _numerator_table(self, depth: int, limits: FeasibilityLimits) -> np.ndarray:
        """Evaluate on all of F_p^n as numerators at the given depth."""
        p, n = self.prime, self.nvars
        limits.check_table(p**n, "polynomial evaluation table")
        mod = p ** (depth + 1)
        acc = np.zeros(p**n, dtype=np.int64)
        for m, c in self.terms.items():
            acc += monomial_table(p, n, m.exps, mod, c * p ** (depth - m.k))
            acc %= mod
        return acc

    def to_word(self, limits: FeasibilityLimits | None = None) -> Word:
        """Dense torus-valued table, depth equal to the polynomial's depth."""
        lim = resolve(limits)
        k = self.depth()
        table = self._numerator_table(k, lim)
        return Word(self.prime, self.nvars, TORUS, k, tuple(table.tolist()))

    def classical_field_word(self, limits: FeasibilityLimits | None = None) -> Word:
        """Field-valued table of a classical polynomial (iota inverted)."""
        if not self.is_classical():
            raise ValueError("field tables exist only for classical polynomials")
        lim = resolve(limits)
        table = self._numerator_table(0, lim)
        return Word(self.prime, self.nvars, FIELD, 0, tuple(table.tolist()))

    # ---- arithmetic ------------------------------------------------------

    def _column_form(self, depth: int) -> dict[tuple[int, ...], int]:
        """Per-exponent combined numerator sum_k c_{e,k} p^{depth-k}."""
        cols: dict[tuple[int, ...], int] = {}
        p = self.prime
        for m, c in self.terms.items():
            cols[m.exps] = cols.get(m.exps, 0) + c * p ** (depth - m.k)
        return cols

    @staticmethod
    def _from_columns(
        p: int, n: int, depth: int, cols: Mapping[tuple[int, ...], int]
    ) -> "NonclassicalPoly":
        mod = p ** (depth + 1)
        terms: dict[Monomial, int] = {}
        for exps, a in cols.items():
            a %= mod
            for j in range(depth + 1):
                digit = (a // p**j) % p
                if digit:
                    k = depth - j
                    if k > 0 and not any(exps):
                        # cannot happen through public operations; guard anyway
                        raise NotAPolynomialError(
                            "operation produced a nonzero shift"
                        )
                    terms[Monomial(exps, k)] = digit
        return NonclassicalPoly(p, n, terms)

    def scalar_mul(self, c: int) -> "NonclassicalPoly":
        """Exact canonical form of the integer multiple c*f (c >= 0).

        Multiplying a depth-k term by p moves it to depth k-1 (and kills
        depth-0 terms), which is where the degree drop max(d-p+1, 0) of the
        times-p law comes from.
        """
        if c < 0:
            raise ValueError("scalar must be >= 0")
        k = self.depth()
        cols = {e: a * c for e, a in self._column_form(k).items()}
        return self._from_columns(self.prime, self.nvars, k, cols)

    def add(self, other: "NonclassicalPoly") -> "NonclassicalPoly":
        if self.prime != other.prime or self.nvars != other.nvars:
            raise ValueError("polynomial shape mismatch")
        k = max(self.depth(), other.depth())
        cols = self._column_form(k)
        for e, a in other._column_form(k).items():
            cols[e] = cols.get(e, 0) + a
        return self._from_columns(self.prime, self.nvars, k, cols)

    def neg(self) -> "NonclassicalPoly":
        return self.scalar_mul(self.prime ** (self.depth() + 1) - 1)

    # ---- serialization ---------------------------------------------------

    def to_text(self) -> str:
        lines = [f"p={self.prime} n={self.nvars}"]
        for m, c in self._sorted:
            e = ",".join(str(v) for v in m.exps)
            lines.append(f"c={c} e={e} k={m.k}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "NonclassicalPoly":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty polynomial text")
        header = dict(part.split("=", 1) for part in lines[0].split())
        terms = {}
        try:
            p, n = int(header["p"]), int(header["n"])
            for ln in lines[1:]:
                fields = dict(part.split("=", 1) for part in ln.split())
                exps = tuple(int(v) for v in fields["e"].split(","))
                terms[Monomial(exps, int(fields["k"]))] = int(fields["c"])
        except KeyError as exc:
            raise ValueError(f"polynomial text has no {exc.args[0]}= field") from exc
        return cls(p, n, terms)


def zero_poly(p: int, n: int) -> NonclassicalPoly:
    return NonclassicalPoly(p, n, {})


def monomial_poly(p: int, n: int, exps: Sequence[int], k: int = 0, c: int = 1) -> NonclassicalPoly:
    return NonclassicalPoly(p, n, {Monomial(tuple(exps), k): c})


def classical_from_coeffs(
    p: int, n: int, coeffs: Mapping[tuple[int, ...], int]
) -> NonclassicalPoly:
    """Classical polynomial from a coefficient map exps -> F_p."""
    return NonclassicalPoly(p, n, {Monomial(e, 0): c for e, c in coeffs.items()})


# ---- classical ring helpers (only what the listed operations need) -------


def _reduce_exp(p: int, e: int) -> int:
    # x^p = x as a function on F_p; repeated reduction keeps 1 <= e <= p-1
    while e >= p:
        e -= p - 1
    return e


def mul_classical(f: NonclassicalPoly, g: NonclassicalPoly) -> NonclassicalPoly:
    """Product of classical polynomials, reduced to individual exponents
    <= p-1 via the function identity x^p = x."""
    if f.prime != g.prime or f.nvars != g.nvars:
        raise ValueError("polynomial shape mismatch")
    if not (f.is_classical() and g.is_classical()):
        raise ValueError("classical multiplication needs depth-0 inputs")
    p = f.prime
    acc: dict[tuple[int, ...], int] = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            exps = tuple(
                _reduce_exp(p, e1 + e2) for e1, e2 in zip(m1.exps, m2.exps)
            )
            acc[exps] = (acc.get(exps, 0) + c1 * c2) % p
    return classical_from_coeffs(p, f.nvars, {e: c for e, c in acc.items() if c})


def multilinearize(f: NonclassicalPoly) -> NonclassicalPoly:
    """Replace every positive exponent by 1 and combine like terms mod p.

    The result is the unique multilinear polynomial agreeing with f on the
    cube {0,1}^n.
    """
    if not f.is_classical():
        raise ValueError("multilinearization is defined for classical polynomials")
    p = f.prime
    acc: dict[tuple[int, ...], int] = {}
    for m, c in f.terms.items():
        exps = tuple(min(e, 1) for e in m.exps)
        acc[exps] = (acc.get(exps, 0) + c) % p
    return classical_from_coeffs(p, f.nvars, {e: c for e, c in acc.items() if c})


def symmetric_poly(ell: int, r: int, p: int) -> NonclassicalPoly:
    """The ell-th elementary symmetric polynomial in r variables, mod p."""
    if not 1 <= ell <= r:
        raise ValueError(f"need 1 <= ell <= r, got ell={ell}, r={r}")
    terms = {}
    for combo in itertools.combinations(range(r), ell):
        exps = tuple(1 if i in combo else 0 for i in range(r))
        terms[Monomial(exps, 0)] = 1
    return NonclassicalPoly(p, r, terms)


# ---- interpolation and canonical fitting ---------------------------------


@lru_cache(maxsize=None)
def _inverse_vandermonde(p: int) -> tuple[tuple[int, ...], ...]:
    """Inverse mod p of the matrix V[t][j] = t**j, t, j in 0..p-1."""
    v = [[pow(t, j, p) for j in range(p)] for t in range(p)]
    inv = [[1 if i == j else 0 for j in range(p)] for i in range(p)]
    for col in range(p):
        pivot = next(r for r in range(col, p) if v[r][col] % p)
        v[col], v[pivot] = v[pivot], v[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = pow(v[col][col], -1, p)
        v[col] = [x * scale % p for x in v[col]]
        inv[col] = [x * scale % p for x in inv[col]]
        for r in range(p):
            if r != col and v[r][col]:
                factor = v[r][col]
                v[r] = [(x - factor * y) % p for x, y in zip(v[r], v[col])]
                inv[r] = [(x - factor * y) % p for x, y in zip(inv[r], inv[col])]
    return tuple(tuple(row) for row in inv)


def interpolate_classical(
    word: Word, limits: FeasibilityLimits | None = None
) -> NonclassicalPoly:
    """The unique classical polynomial with individual exponents <= p-1
    agreeing with the field word everywhere."""
    if word.kind != FIELD:
        raise ValueError("interpolate_classical needs a field word")
    lim = resolve(limits)
    p, n = word.prime, word.nvars
    lim.check_table(p**n, "classical interpolation")
    inv = np.array(_inverse_vandermonde(p), dtype=np.int64)
    tensor = np.array(word.values, dtype=np.int64).reshape((p,) * n)
    for axis in range(n):
        tensor = np.moveaxis(
            np.tensordot(inv, tensor, axes=([1], [axis])) % p, 0, axis
        )
    coeffs = {}
    for exps in itertools.product(range(p), repeat=n):
        c = int(tensor[exps])
        if c:
            coeffs[exps] = c
    return classical_from_coeffs(p, n, coeffs)


def canonical_fit(
    word: Word, max_depth: int, limits: FeasibilityLimits | None = None
) -> NonclassicalPoly:
    """Recover the unique zero-shift polynomial representation of a torus word.

    Works by triangular elimination over depth layers: the deepest layer is
    read off mod p by classical interpolation of the scaled numerators, the
    layer's exact integer contribution is subtracted, and the remainder
    (now divisible by p) is peeled down one depth.  A nonzero constant
    appearing at depth >= 1 means the table requires a shift, and a value
    outside U_{max_depth+1} means it is no polynomial at that depth; both
    raise :class:`NotAPolynomialError`.
    """
    lim = resolve(limits)
    if word.kind != TORUS:
        raise ValueError("canonical_fit needs a torus-valued table")
    p, n = word.prime, word.nvars
    entries = [word.torus_value(i) for i in range(word.length)]
    lim.check_table(p**n, "canonical fit")

    depth = max((e.depth for e in entries), default=0)
    if depth > max_depth:
        raise NotAPolynomialError(
            f"table needs depth {depth}, allowed at most {max_depth}"
        )
    # Python ints until the first layer's monomial_table call has refused a
    # modulus whose numerators would not fit in int64
    remaining = [e.numerator_at(depth) for e in entries]
    terms: dict[Monomial, int] = {}
    for k in range(depth, -1, -1):
        mod = p ** (k + 1)
        fitted = interpolate_classical(Word.field_word(p, n, remaining), lim)
        contrib = np.zeros(p**n, dtype=np.int64)
        for m, c in fitted.terms.items():
            if m.k != 0:
                raise AssertionError("classical fit returned deep terms")
            if k > 0 and not any(m.exps):
                raise NotAPolynomialError(
                    f"table requires a nonzero shift at depth {k}"
                )
            terms[Monomial(m.exps, k)] = c
            contrib = (contrib + monomial_table(p, n, m.exps, mod, c)) % mod
        remaining = (np.asarray(remaining, dtype=np.int64) - contrib) % mod
        if np.any(remaining % p):
            raise AssertionError("layer subtraction left a unit residue")
        remaining //= p
    return NonclassicalPoly(p, n, terms)


# ---- random canonical polynomials (experiments and property tests) -------


def canonical_monomials(p: int, n: int, max_depth: int) -> list[Monomial]:
    """All valid canonical monomials with depth index <= max_depth."""
    out = []
    for k in range(max_depth + 1):
        for exps in itertools.product(range(p), repeat=n):
            if k > 0 and not any(exps):
                continue
            out.append(Monomial(exps, k))
    return out


def random_canonical_poly(
    p: int,
    n: int,
    max_depth: int,
    rng,
    max_terms: int = 4,
    nonzero: bool = True,
) -> NonclassicalPoly:
    """A random canonical polynomial from a seeded ``random.Random``."""
    space = canonical_monomials(p, n, max_depth)
    while True:
        count = rng.randint(1, max_terms)
        chosen = rng.sample(space, min(count, len(space)))
        terms = {m: rng.randint(1, p - 1) for m in chosen}
        poly = NonclassicalPoly(p, n, terms)
        if poly.terms or not nonzero:
            return poly
