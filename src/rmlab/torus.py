"""Exact arithmetic in the p-power torsion subgroups of the torus R/Z.

A value is stored as an integer numerator at an explicit depth: the pair
``(num, depth)`` over prime p represents ``num / p**(depth+1) (mod 1)``.
The canonical form has ``depth == 0`` or ``num`` not divisible by p, so
equal group elements compare equal as Python objects.  No floating point is
used anywhere; all identities in this package are exact.

The subgroup of elements representable at depth <= k is U_{k+1}, the cyclic
group of order p**(k+1).  The embedding ``iota`` sends a field element a to
a/p, i.e. a depth-0 value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def frac_str(x: Fraction) -> str:
    """Exact ``num/den`` text of a fraction."""
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(x) -> Fraction:
    """Exact parse of ``num/den``, decimal strings like ``0.375`` and integers;
    non-strings (numbers read from JSON) go through ``Fraction(x)``."""
    if not isinstance(x, str):
        return Fraction(x)
    text = x.strip()
    if "/" in text:
        try:
            num, den = (int(part) for part in text.split("/"))
        except ValueError:
            raise ValueError(f"bad fraction {text!r}") from None
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return Fraction(text)


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")


@dataclass(frozen=True)
class TorusValue:
    """An element of U_{depth+1} = (1/p^{depth+1})Z / Z, canonicalized."""

    prime: int
    num: int
    depth: int

    def __post_init__(self):
        require_prime(self.prime)
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        p = self.prime
        num = self.num % (p ** (self.depth + 1))
        depth = self.depth
        while depth > 0 and num % p == 0:
            num //= p
            depth -= 1
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "depth", depth)

    @classmethod
    def zero(cls, p: int) -> "TorusValue":
        return cls(p, 0, 0)

    @classmethod
    def from_fraction(cls, p: int, value: Fraction) -> "TorusValue":
        """Convert an exact fraction; its denominator must be a power of p."""
        value = Fraction(value) % 1
        den = value.denominator
        depth = -1
        while den > 1:
            if den % p:
                raise ValueError(
                    f"{value} is not in any U_k for p={p} (denominator not a p power)"
                )
            den //= p
            depth += 1
        if depth < 0:
            # integer fraction, i.e. zero mod 1
            return cls.zero(p)
        return cls(p, value.numerator, depth)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.prime ** (self.depth + 1))

    def numerator_at(self, depth: int) -> int:
        """Numerator rescaled to denominator p**(depth+1); depth >= self.depth."""
        if depth < self.depth:
            raise ValueError(f"cannot lower depth {self.depth} to {depth}")
        return self.num * self.prime ** (depth - self.depth)

    def is_zero(self) -> bool:
        return self.num == 0

    def _check(self, other: "TorusValue") -> None:
        if self.prime != other.prime:
            raise ValueError("torus values over different primes")

    def __add__(self, other: "TorusValue") -> "TorusValue":
        self._check(other)
        k = max(self.depth, other.depth)
        return TorusValue(self.prime, self.numerator_at(k) + other.numerator_at(k), k)

    def __sub__(self, other: "TorusValue") -> "TorusValue":
        self._check(other)
        k = max(self.depth, other.depth)
        return TorusValue(self.prime, self.numerator_at(k) - other.numerator_at(k), k)

    def __neg__(self) -> "TorusValue":
        return TorusValue(self.prime, -self.num, self.depth)

    def __mul__(self, c: int) -> "TorusValue":
        if not isinstance(c, int):
            return NotImplemented
        return TorusValue(self.prime, self.num * c, self.depth)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.num == 0:
            return "0"
        return f"{self.num}/{self.prime ** (self.depth + 1)}"


def iota(p: int, a: int) -> TorusValue:
    """The bijection F_p -> U_1 sending a to a/p (mod 1)."""
    require_prime(p)
    if not 0 <= a < p:
        raise ValueError(f"field element out of range: {a} (p={p})")
    return TorusValue(p, a, 0)
