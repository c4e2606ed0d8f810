"""Dense evaluation tables over F_p^n.

A :class:`Word` is the unit of distance computation and enumeration: a
table of length p**n indexed base-p row-major with x_1 as the most
significant digit.  Two alphabets exist:

* ``field`` — entries are integers in {0, ..., p-1};
* ``torus:<k>`` — entries are elements of U_{k+1}, stored as integer
  numerators at the fixed depth k (entry m represents m / p**(k+1) mod 1).

Storing torus entries as scaled numerators keeps tables as flat integer
tuples, which both serializes directly and converts to numpy arrays for the
dense scans in the degree checker.

Text format: a header line ``<p> <n> <alphabet>`` with alphabet ``field`` or
``torus:<k>``, followed by the p**n entries row-major, whitespace-separated
(field: digits; torus: numerators at the fixed depth).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .limits import FeasibilityError, FeasibilityLimits, resolve
from .torus import TorusValue, require_prime

FIELD = "field"
TORUS = "torus"


def point_to_index(p: int, point: Sequence[int]) -> int:
    idx = 0
    for x in point:
        idx = idx * p + (x % p)
    return idx


def index_to_point(p: int, n: int, idx: int) -> tuple[int, ...]:
    digits = [0] * n
    for i in range(n - 1, -1, -1):
        digits[i] = idx % p
        idx //= p
    return tuple(digits)


INT64_MAX = 2**63 - 1


def index_digits(p: int, n: int, idx: np.ndarray) -> np.ndarray:
    """Base-p digits of each index, most significant first: shape (n, len(idx))."""
    return np.stack([(idx // p ** (n - 1 - i)) % p for i in range(n)])


@lru_cache(maxsize=16)
def digit_columns(p: int, n: int) -> np.ndarray:
    """The (n, p**n) coordinates of every point of F_p^n: row i holds x_{i+1}
    in the row-major order of :func:`point_to_index`.  Cached; read-only."""
    cols = index_digits(p, n, np.arange(p**n, dtype=np.int64))
    cols.flags.writeable = False
    return cols


def require_int64(bound: int, mod: int) -> None:
    """Refuse (FeasibilityError) arithmetic mod m whose intermediate bound leaves int64."""
    if bound > INT64_MAX:
        raise FeasibilityError(f"int64 arithmetic mod {mod}", bound, INT64_MAX)


@lru_cache(maxsize=256)
def _power_row(p: int, e: int, mod: int) -> np.ndarray:
    """x**e mod m for x in 0..p-1, one row of the p x p power table; read-only."""
    row = [pow(x, e, mod) for x in range(p)]
    require_int64((mod - 1) * max(row), mod)
    out = np.array(row, dtype=np.int64)
    out.flags.writeable = False
    return out


def monomial_table(p: int, n: int, exps: Sequence[int], mod: int, coeff: int = 1) -> np.ndarray:
    """coeff * x_1**e_1 * ... * x_n**e_n mod m on all of F_p^n, a flat int64
    table in :func:`point_to_index` order with entries below m.  Refuses
    (FeasibilityError) a modulus where a residue times a power table entry,
    or the sum of two residues that callers accumulate, leaves int64."""
    require_int64(2 * (mod - 1), mod)
    powers = [(col, _power_row(p, e, mod)) for col, e in zip(digit_columns(p, n), exps) if e]
    table = np.full(p**n, coeff % mod, dtype=np.int64)
    for col, row in powers:
        table = table * row[col] % mod
    return table


@dataclass(frozen=True)
class Word:
    """Dense table over F_p^n with a single declared alphabet."""

    prime: int
    nvars: int
    kind: str  # FIELD or TORUS
    depth: int  # 0 for field words; the U_{depth+1} depth for torus words
    values: tuple[int, ...]

    def __post_init__(self):
        require_prime(self.prime)
        if self.nvars < 1:
            raise ValueError("need at least one variable")
        if self.kind not in (FIELD, TORUS):
            raise ValueError(f"unknown alphabet kind {self.kind!r}")
        if self.kind == FIELD and self.depth != 0:
            raise ValueError("field words have depth 0")
        if len(self.values) != self.prime**self.nvars:
            raise ValueError(
                f"table length {len(self.values)} != {self.prime}^{self.nvars}"
            )
        m = self.modulus
        if any(not 0 <= v < m for v in self.values):
            raise ValueError("table entry out of alphabet range")

    @property
    def modulus(self) -> int:
        """Alphabet size: p for field words, p**(depth+1) for torus words."""
        if self.kind == FIELD:
            return self.prime
        return self.prime ** (self.depth + 1)

    @property
    def length(self) -> int:
        return len(self.values)

    def alphabet_label(self) -> str:
        return FIELD if self.kind == FIELD else f"torus:{self.depth}"

    def same_shape(self, other: "Word") -> bool:
        return (
            self.prime == other.prime
            and self.nvars == other.nvars
            and self.kind == other.kind
            and self.depth == other.depth
        )

    def value_at_point(self, point: Sequence[int]) -> int:
        return self.values[point_to_index(self.prime, point)]

    def torus_value(self, idx: int) -> TorusValue:
        if self.kind != TORUS:
            raise ValueError("not a torus word")
        return TorusValue(self.prime, self.values[idx], self.depth)

    def is_constant(self) -> bool:
        first = self.values[0]
        return all(v == first for v in self.values)

    @classmethod
    def field_word(cls, p: int, n: int, values: Iterable[int]) -> "Word":
        return cls(p, n, FIELD, 0, tuple(int(v) % p for v in values))

    @classmethod
    def torus_word(cls, p: int, n: int, depth: int, numerators: Iterable[int]) -> "Word":
        m = p ** (depth + 1)
        return cls(p, n, TORUS, depth, tuple(int(v) % m for v in numerators))

    @classmethod
    def zeros(cls, p: int, n: int, kind: str = FIELD, depth: int = 0) -> "Word":
        return cls(p, n, kind, depth if kind == TORUS else 0, (0,) * p**n)

    def to_text(self, per_line: int = 16) -> str:
        lines = [f"{self.prime} {self.nvars} {self.alphabet_label()}"]
        for i in range(0, len(self.values), per_line):
            lines.append(" ".join(str(v) for v in self.values[i : i + per_line]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Word":
        tokens = text.split()
        if len(tokens) < 3:
            raise ValueError("truncated word header")
        p, n = int(tokens[0]), int(tokens[1])
        alphabet = tokens[2]
        values = [int(t) for t in tokens[3:]]
        if alphabet == FIELD:
            return cls(p, n, FIELD, 0, tuple(values))
        if alphabet.startswith("torus:"):
            depth = int(alphabet.split(":", 1)[1])
            return cls(p, n, TORUS, depth, tuple(values))
        raise ValueError(f"unknown alphabet {alphabet!r}")


def iota_word(word: Word) -> Word:
    """Embed a field word into the torus via a -> a/p (depth 0)."""
    if word.kind == TORUS:
        return word
    return Word(word.prime, word.nvars, TORUS, 0, word.values)


def random_field_word(p: int, n: int, rng, limits: FeasibilityLimits | None = None) -> Word:
    """A uniformly random field word drawn from a seeded ``random.Random``.

    The sampling convention is fixed: p**n calls to ``rng.randrange(p)`` in
    row-major index order, so experiments are reproducible bit-for-bit.
    """
    lim = resolve(limits)
    lim.check_table(p**n, "random word")
    return Word(p, n, FIELD, 0, tuple(rng.randrange(p) for _ in range(p**n)))
