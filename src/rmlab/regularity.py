"""Weak regularity for simplex-valued functions, the atoms and atom
uniformity of factors, and the desk-scale rank search for words.

Randomized functions X -> Y are modeled as maps into the probability
simplex P(Y); two functions agree with probability E_x <f(x), g(x)>.  The
decomposition loop repeatedly conditions a target g on the factor induced
by the distinguishers chosen so far and adds the first family member (in
the family's own order) that still tells the conditioned proxy apart from
g by more than eps.  Each accepted step raises the proxy's mean squared
norm by at least eps^2, which caps the number of steps at floor(1/eps^2).

The loop runs on integer arrays: g as numerators over one denominator D,
the family as numerators over one denominator E (a deterministic member is
its one-hot case).  With c[A, y] the sum of g's numerators over atom A and
L = lcm |A|, every eps comparison is an exact integer comparison after
scaling by N L D E, and floats are never used.  Arrays hold Python integers
only when a scaled value could leave int64.

Atoms are fiber labels (entry x is the first point of x's atom); the same
labels partition factors and certify measurability in the rank search.
The rank search is exact only at desk scale: beyond the supplied budget it
returns an explicit lower bound, never a guess.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .limits import FeasibilityLimits, resolve
from .polynomial import Monomial, NonclassicalPoly, canonical_monomials
from .torus import frac_str
from .words import INT64_MAX, Word, index_digits, monomial_table, require_int64


@dataclass(frozen=True)
class SimplexFunction:
    """Table of probability vectors over a finite alphabet of size |Y|."""

    alphabet: int
    table: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        for row in self.table:
            if len(row) != self.alphabet:
                raise ValueError("simplex value has wrong alphabet size")
            if not all(isinstance(w, numbers.Rational) for w in row):
                raise ValueError("simplex weights must be exact rationals")
            if any(w < 0 for w in row):
                raise ValueError("negative simplex weight")
            if sum(row) != 1:
                raise ValueError("simplex weights must sum to exactly 1")

    @property
    def domain_size(self) -> int:
        return len(self.table)

    @classmethod
    def from_field_word(cls, word: Word) -> "SimplexFunction":
        """Deterministic embedding: weight 1 on the letter the word takes."""
        if word.kind != "field":
            raise ValueError("embedding expects a field word")
        p = word.prime
        one_hot = [tuple(Fraction(int(y == v)) for y in range(p)) for v in range(p)]
        return cls(p, tuple(one_hot[v] for v in word.values))


def agreement_prob(f: SimplexFunction, g: SimplexFunction) -> Fraction:
    """Pr_x[f(x) = g(x)] = E_x <f(x), g(x)>, exact."""
    if f.alphabet != g.alphabet or f.domain_size != g.domain_size:
        raise ValueError("simplex function shape mismatch")
    (a, b), den = _numerators([f.table, g.table])
    return Fraction(_dot(a, b), den * den * f.domain_size)


def energy(f: SimplexFunction) -> Fraction:
    """Mean squared 2-norm E_x ||f(x)||_2^2, exact."""
    (a,), den = _numerators([f.table])
    return Fraction(_dot(a, a), den * den * f.domain_size)


# ---- integer kernels -------------------------------------------------------


def _fibers(keys: np.ndarray) -> np.ndarray:
    """Fiber labels of each row of ``keys`` (last axis = points): entry x is
    the first position holding the value at x.  Two rows partition the
    points alike exactly when their labels are equal."""
    size = keys.shape[-1]
    order = np.argsort(keys, axis=-1, kind="stable")
    ranked = np.take_along_axis(keys, order, axis=-1)
    run_start = np.ones(keys.shape, dtype=bool)
    run_start[..., 1:] = ranked[..., 1:] != ranked[..., :-1]
    pos = np.where(run_start, np.arange(size), 0)
    np.maximum.accumulate(pos, axis=-1, out=pos)
    labels = np.empty(keys.shape, dtype=np.int64)
    np.put_along_axis(labels, order, np.take_along_axis(order, pos, axis=-1), axis=-1)
    return labels


def _refine(labels: np.ndarray, columns: Iterable[np.ndarray]) -> np.ndarray:
    """Fiber labels of the common refinement of ``labels`` and the fibers of
    each column (any integer values, Python integers included)."""
    for col in columns:
        labels = _fibers(labels * labels.shape[-1] + _fibers(col))
    return labels


def _atom_sums(num: np.ndarray, labels: np.ndarray):
    """First point, size |A| and numerator sums c[A, y] of each atom (in
    first-point order), and the atom index of each point."""
    reps, atom = np.unique(labels, return_inverse=True)
    sums = np.zeros((len(reps), num.shape[1]), dtype=num.dtype)
    np.add.at(sums, atom, num)
    return reps, atom, np.bincount(atom), sums


def _averages(sums: np.ndarray, sizes: np.ndarray, den: int) -> list[tuple[Fraction, ...]]:
    """The atom averages c[A, y] / (|A| D) as exact rows."""
    return [tuple(Fraction(c, s * den) for c in row) for row, s in zip(sums.tolist(), sizes.tolist())]


def _dtype(bound: int):
    """int64 while every value stays within ``bound``, else Python integers."""
    return object if bound > INT64_MAX else np.int64


def _numerators(tables: Sequence[tuple[tuple[Fraction, ...], ...]]) -> tuple[np.ndarray, int]:
    """Simplex tables as one (count, N, |Y|) array of numerators over their
    least common denominator D; Python integers when N D leaves int64."""
    den = math.lcm(*(w.denominator for t in tables for row in t for w in row))
    size = len(tables[0])
    rows = [[[w.numerator * (den // w.denominator) for w in row] for row in t] for t in tables]
    return np.array(rows, dtype=_dtype(den * size)).reshape(len(tables), size, -1), den


def _dot(a: np.ndarray, b: np.ndarray) -> int:
    """sum a * b in Python integers, whatever the arrays' bounds."""
    return sum(x * y for x, y in zip(a.ravel().tolist(), b.ravel().tolist()))


class Factor:
    """Partition of F_p^n induced by the value tuple of an ordered list of
    defining words (for polynomial factors, torus alphabets U_{k_i+1})."""

    def __init__(self, definers: Sequence[Word]):
        definers = tuple(definers)
        if definers:
            first = definers[0]
            for w in definers:
                if w.prime != first.prime or w.nvars != first.nvars:
                    raise ValueError("definers live on different domains")
            self.prime = first.prime
            self.nvars = first.nvars
            self.domain_size = first.length
        else:
            raise ValueError("a factor needs a domain; use Factor.trivial")
        self.definers = definers
        self._labels: np.ndarray | None = None

    @classmethod
    def trivial(cls, p: int, n: int) -> "Factor":
        factor = cls.__new__(cls)
        factor.prime = p
        factor.nvars = n
        factor.domain_size = p**n
        factor.definers = ()
        factor._labels = None
        return factor

    @classmethod
    def from_polys(
        cls, polys: Sequence[NonclassicalPoly], limits: FeasibilityLimits | None = None
    ) -> "Factor":
        return cls([poly.to_word(limits) for poly in polys])

    @property
    def size(self) -> int:
        """|B|: the number of defining words."""
        return len(self.definers)

    @property
    def norm(self) -> int:
        """||B||: the number of nominal atoms, prod p^{k_i+1}."""
        out = 1
        for w in self.definers:
            out *= w.modulus
        return out

    def atom_key(self, idx: int) -> tuple[int, ...]:
        return tuple(w.values[idx] for w in self.definers)

    def fibers(self) -> np.ndarray:
        """Atom label of every point: the first point with the same key."""
        if self._labels is None:
            columns = (np.array(w.values) for w in self.definers)
            self._labels = _refine(np.zeros(self.domain_size, dtype=np.int64), columns)
        return self._labels

    def atoms(self) -> dict[tuple[int, ...], list[int]]:
        labels = self.fibers()  # sorted labels are the atoms in first-point order
        return {self.atom_key(r): np.flatnonzero(labels == r).tolist() for r in np.unique(labels)}

    def nominal_atoms(self) -> Iterable[tuple[int, ...]]:
        return itertools.product(*(range(w.modulus) for w in self.definers))

    def refines(self, other: "Factor") -> bool:
        """Semantic refinement: equal keys here imply equal keys there."""
        return np.array_equal(_refine(self.fibers(), [other.fibers()]), self.fibers())

    def to_json(self) -> str:
        """Definer words plus their depth annotations."""
        payload = {
            "count": self.size,
            "norm": self.norm,
            "definers": [
                {"depth": w.depth if w.kind == "torus" else 0, "word": w.to_text()}
                for w in self.definers
            ],
        }
        return json.dumps(payload, sort_keys=True)


@dataclass(frozen=True)
class TraceStep:
    energy: Fraction
    violator: int | None  # None marks the initial (empty-factor) energy row


@dataclass
class DecompositionResult:
    """Chosen distinguisher indices, the atom-average table, and the
    per-iteration energy trace."""

    eps: Fraction
    chosen: tuple[int, ...]
    gamma: dict
    trace: tuple[TraceStep, ...]
    proxy: SimplexFunction

    def to_json(self) -> str:
        def atom_repr(key):
            parts = []
            for component in key:
                letters = [i for i, w in enumerate(component) if w == 1]
                if len(letters) == 1 and sum(component) == 1:
                    parts.append(letters[0])
                else:
                    parts.append([frac_str(w) for w in component])
            return parts

        payload = {
            "eps": frac_str(self.eps),
            "chosen": list(self.chosen),
            "trace": [{"energy": frac_str(s.energy), "violator": s.violator} for s in self.trace],
            "gamma": [
                {"atom": atom_repr(key), "dist": [frac_str(w) for w in row]}
                for key, row in sorted(self.gamma.items())
            ],
        }
        return json.dumps(payload, sort_keys=True)


def weak_regularize(
    g: SimplexFunction,
    family: Sequence[SimplexFunction] | np.ndarray,
    eps: Fraction,
) -> DecompositionResult:
    """Frieze-Kannan style decomposition against a family of distinguishers.

    Repeatedly conditions g on the factor of the chosen functions and adds
    the first family member whose agreement with the conditioned proxy
    differs from its agreement with g by more than eps.  The loop is
    deterministic: the family's own order is the scan order and the first
    violator wins.  Terminates within floor(1/eps^2) steps because every
    accepted step raises the proxy energy by at least eps^2.

    ``family`` is a sequence of simplex functions, or an (F, N) integer
    array of letters whose rows are deterministic members.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    p, size = g.alphabet, g.domain_size
    if isinstance(family, np.ndarray):
        if family.ndim != 2 or family.shape[1] != size or ((family < 0) | (family >= p)).any():
            raise ValueError("family member shape mismatch")
        (num,), den = _numerators([g.table])
        table, fam_den = np.eye(p, dtype=np.int64)[family], 1  # one-hot numerators
    else:
        if any(f.alphabet != p or f.domain_size != size for f in family):
            raise ValueError("family member shape mismatch")
        table, den = _numerators([g.table] + [f.table for f in family])
        num, table, fam_den = table[0], table[1:], den
    max_steps = math.floor(1 / (eps * eps))
    chosen: list[int] = []
    trace: list[TraceStep] = []
    labels = np.zeros(size, dtype=np.int64)

    while True:
        reps, atom, sizes, sums = _atom_sums(num, labels)
        lcm = math.lcm(*sizes.tolist())
        # every scaled agreement is at most N L D E in absolute value
        scale = size * lcm * den * fam_den
        dtype = _dtype(max(eps.numerator, eps.denominator) * scale)
        weights = sums.astype(dtype) * np.array([lcm // s for s in sizes.tolist()], dtype)[:, None]
        energy_now = Fraction(_dot(sums, weights), lcm * size * den * den)
        trace.append(TraceStep(energy_now, chosen[-1] if chosen else None))
        # per member: sum_x <f(x), W[atom(x)] - L g(x)>, over N L D E
        diff = (weights[atom] - num.astype(dtype) * lcm).ravel()
        gaps = table.reshape(len(table), size * p).astype(dtype, copy=False) @ diff
        over = np.flatnonzero(eps.denominator * np.abs(gaps) > eps.numerator * scale)
        if not over.size:
            break
        if len(chosen) >= max_steps:
            raise AssertionError("energy increment bound violated; this should be impossible")
        chosen.append(int(over[0]))
        labels = _refine(labels, table[chosen[-1]].T)

    rows = _averages(sums, sizes, den)
    keys = table[chosen][:, reps].transpose(1, 0, 2)  # chosen members' rows at each atom
    return DecompositionResult(
        eps=eps,
        chosen=tuple(chosen),
        gamma={
            tuple(tuple(Fraction(v, fam_den) for v in comp) for comp in key): row
            for key, row in zip(keys.tolist(), rows)
        },
        trace=tuple(trace),
        proxy=SimplexFunction(p, tuple(rows[a] for a in atom.tolist())),
    )


@dataclass
class OneSidedResult:
    """Distinguishers plus one deterministic lookup table per family member:
    ``plurality[f, A]`` is Gamma_f on atom A, ``keys[A]`` the chosen
    members' values there, and ``atoms[x]`` the atom of point x."""

    eps: Fraction
    chosen: tuple[int, ...]
    prime: int
    nvars: int
    keys: tuple[tuple[int, ...], ...]
    atoms: np.ndarray
    plurality: np.ndarray

    def composed_word(self, f_index: int) -> Word:
        """The deterministic proxy Gamma_f(h_1(x), ..., h_c(x)) as a word."""
        values = self.plurality[f_index][self.atoms].tolist()
        return Word(self.prime, self.nvars, "field", 0, tuple(values))


def one_sided_regularize(
    g: Word,
    family: Sequence[Word],
    eps: Fraction,
) -> OneSidedResult:
    """Deterministic one-sided approximation for deterministic words.

    Runs the simplex decomposition on embedded inputs, then assigns to each
    atom the plurality value of f on that atom (ties break to the smallest
    field element).  For every f in the family,
    Pr[Gamma_f(h(x)) = f(x)] >= Pr[g(x) = f(x)] - eps.
    """
    if g.kind != "field" or any(f.kind != "field" for f in family):
        raise ValueError("one-sided regularization expects field words")
    if any(f.prime != g.prime or f.nvars != g.nvars for f in family):
        raise ValueError("family member shape mismatch")
    p, size = g.prime, g.length
    table = np.array([f.values for f in family], dtype=np.int64).reshape(len(family), size)
    result = weak_regularize(SimplexFunction.from_field_word(g), table, eps)

    chosen = list(result.chosen)
    labels = _refine(np.zeros(size, dtype=np.int64), table[chosen])
    reps, atom = np.unique(labels, return_inverse=True)
    # hist[f, A, y] = #{x in A : f(x) = y}; argmax breaks ties to the smallest y
    cells = (np.arange(len(family))[:, None] * len(reps) + atom) * p + table
    hist = np.bincount(cells.ravel(), minlength=len(family) * len(reps) * p)
    return OneSidedResult(
        eps=Fraction(eps),
        chosen=result.chosen,
        prime=p,
        nvars=g.nvars,
        keys=tuple(map(tuple, table[chosen][:, reps].T.tolist())),
        atoms=atom,
        plurality=hist.reshape(len(family), len(reps), p).argmax(axis=2),
    )


def atom_uniformity(
    factor: Factor, limits: FeasibilityLimits | None = None
) -> tuple[Fraction, tuple[int, ...]]:
    """Max over nominal atoms b of |Pr[B(x) = b] - 1/||B|||, exact, plus
    the first atom attaining it.  The operational regularity certificate."""
    lim = resolve(limits)
    lim.check_cases(factor.norm, "nominal atom scan")
    total, norm = factor.domain_size, factor.norm
    reps, sizes = np.unique(factor.fibers(), return_counts=True)
    # |count * ||B|| - N| per occupied atom; every empty atom deviates by N
    deviation = {factor.atom_key(x): abs(c * norm - total) for x, c in zip(reps, sizes.tolist())}
    worst = max(deviation.values()) if len(deviation) == norm else max(*deviation.values(), total)
    atom = next(b for b in factor.nominal_atoms() if deviation.get(b, total) == worst)
    return Fraction(worst, total * norm), atom


# ---- rank ------------------------------------------------------------------

EXACT = "exact"
INFINITE = "infinite"
LOWER_BOUND = "lower_bound"

_BLOCK_ENTRIES = 1 << 16  # table entries per array operation of the rank search


@dataclass(frozen=True)
class RankResult:
    kind: str
    value: int | None
    witness: tuple[NonclassicalPoly, ...] | None = None


@dataclass(frozen=True)
class Candidates:
    """Row i of ``labels``: the i-th partition as fiber labels; row i of
    ``coeffs``: its defining polynomial's coefficients over ``monomials``."""

    prime: int
    nvars: int
    monomials: tuple[Monomial, ...]
    coeffs: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.coeffs)

    def poly(self, i: int) -> NonclassicalPoly:
        terms = {m: int(c) for m, c in zip(self.monomials, self.coeffs[i]) if c}
        return NonclassicalPoly(self.prime, self.nvars, terms)


def degree_candidates(
    p: int, n: int, dmax: int, limits: FeasibilityLimits | None = None
) -> Candidates:
    """All distinct partitions induced by nonconstant polynomials of degree
    <= dmax, each with one defining polynomial (first in coefficient-lex
    order).  Two polynomials with the same fibers refine identically, so
    deduplicating partitions loses nothing for measurability searches.
    Combinations are evaluated at the monomials' common depth K (a depth-k
    term scaled by p^(K-k)), which leaves every polynomial's fibers as they are."""
    lim = resolve(limits)
    lim.check_table(p**n, "polynomial evaluation table")
    monomials = tuple(
        m for m in canonical_monomials(p, n, max(0, (dmax - 1) // (p - 1)))
        if m.degree(p) <= dmax
    )
    count = p ** len(monomials)
    lim.check_cases(count, "degree-candidate enumeration")
    depth = max(m.k for m in monomials)
    mod = p ** (depth + 1)
    require_int64(len(monomials) * (p - 1) * (mod - 1), mod)
    basis = np.stack([monomial_table(p, n, m.exps, mod, p ** (depth - m.k)) for m in monomials])
    seen: dict[bytes, int] = {}  # partition -> first combination, in index order
    block = max(1, _BLOCK_ENTRIES // p**n)
    for start in range(0, count, block):
        coeffs = index_digits(p, len(monomials), np.arange(start, min(count, start + block))).T
        labels = _fibers(coeffs @ basis % mod)
        for i in np.flatnonzero(labels.any(axis=1)).tolist():  # constants never refine anything
            seen.setdefault(labels[i].tobytes(), start + i)
    coeffs = index_digits(p, len(monomials), np.array(list(seen.values()), dtype=np.int64)).T
    labels = np.frombuffer(b"".join(seen), dtype=np.int64).reshape(len(seen), p**n)
    return Candidates(p, n, monomials, coeffs, labels)


def rank_bruteforce(
    f: Word,
    d: int,
    budget: int,
    limits: FeasibilityLimits | None = None,
) -> RankResult:
    """Exhaustive rank computation: the least r such that f is measurable
    with respect to some r polynomials of degree <= d-1.

    For d = 1 the rank is 0 for constants and infinite otherwise.  For
    d >= 2 the search tries r = 1, 2, ..., budget over distinct partitions
    of degree <= d-1 polynomials and returns an explicit lower bound when
    the budget is exhausted.  f is measurable with respect to a tuple
    exactly when it equals its own value at the first point of every atom
    of the tuple's common refinement.
    """
    if d < 1:
        raise ValueError("rank is defined for d >= 1")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    lim = resolve(limits)
    if d == 1:
        if f.is_constant():
            return RankResult(EXACT, 0, ())
        return RankResult(INFINITE, None)
    if f.is_constant():
        return RankResult(EXACT, 0, ())
    candidates = degree_candidates(f.prime, f.nvars, d - 1, lim)
    values = np.array(f.values)
    for r in range(1, budget + 1):
        lim.check_cases(math.comb(len(candidates), r), "rank tuple search")
        tuples = itertools.combinations(range(len(candidates)), r)
        while block := list(itertools.islice(tuples, max(1, _BLOCK_ENTRIES // (r * f.length)))):
            picked = candidates.labels[np.array(block)]  # (B, r, N)
            labels = _refine(picked[:, 0], (picked[:, j] for j in range(1, r)))
            hits = np.flatnonzero((values[labels] == values).all(axis=1))
            if hits.size:
                return RankResult(EXACT, r, tuple(candidates.poly(i) for i in block[hits[0]]))
    return RankResult(LOWER_BOUND, budget)
