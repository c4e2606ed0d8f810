"""Weak regularity for simplex-valued functions, factors, and desk-scale
rank machinery for polynomial factors.

Randomized functions X -> Y are modeled as maps into the probability
simplex P(Y); two functions agree with probability E_x <f(x), g(x)>.  The
decomposition loop repeatedly conditions a target g on the factor induced
by the distinguishers chosen so far and adds the first family member (in
the family's own order) that still tells the conditioned proxy apart from
g by more than eps.  Each accepted step raises the proxy's mean squared
norm by at least eps^2, which caps the number of steps at floor(1/eps^2).
Everything is exact rational arithmetic; the eps contract is checked with
exact comparisons, never floats.

Rank searches are exact only at desk scale: beyond the supplied budget
they return explicit lower bounds, never guesses.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .limits import FeasibilityLimits, resolve
from .polynomial import (
    NonclassicalPoly,
    canonical_fit,
    canonical_monomials,
    zero_poly,
)
from .torus import frac_str
from .words import Word


@dataclass(frozen=True)
class SimplexFunction:
    """Table of probability vectors over a finite alphabet of size |Y|."""

    alphabet: int
    table: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        for row in self.table:
            if len(row) != self.alphabet:
                raise ValueError("simplex value has wrong alphabet size")
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
        rows = []
        for v in word.values:
            row = [Fraction(0)] * p
            row[v] = Fraction(1)
            rows.append(tuple(row))
        return cls(p, tuple(rows))


def agreement_prob(f: SimplexFunction, g: SimplexFunction) -> Fraction:
    """Pr_x[f(x) = g(x)] = E_x <f(x), g(x)>, exact."""
    if f.alphabet != g.alphabet or f.domain_size != g.domain_size:
        raise ValueError("simplex function shape mismatch")
    total = Fraction(0)
    for fr, gr in zip(f.table, g.table):
        total += sum(a * b for a, b in zip(fr, gr))
    return total / f.domain_size


def energy(f: SimplexFunction) -> Fraction:
    """Mean squared 2-norm E_x ||f(x)||_2^2, exact."""
    total = Fraction(0)
    for row in f.table:
        total += sum(w * w for w in row)
    return total / f.domain_size


def _average_rows(rows: Iterable[tuple[Fraction, ...]], alphabet: int) -> tuple[Fraction, ...]:
    acc = [Fraction(0)] * alphabet
    count = 0
    for row in rows:
        count += 1
        for i, w in enumerate(row):
            acc[i] += w
    if count == 0:
        raise ValueError("empty atom has no average")
    return tuple(w / count for w in acc)


def _condition_on_keys(g: SimplexFunction, keys: Sequence) -> tuple[SimplexFunction, dict]:
    atoms: dict = {}
    for idx, key in enumerate(keys):
        atoms.setdefault(key, []).append(idx)
    gamma = {
        key: _average_rows((g.table[i] for i in idxs), g.alphabet)
        for key, idxs in atoms.items()
    }
    table = tuple(gamma[key] for key in keys)
    return SimplexFunction(g.alphabet, table), gamma


class Factor:
    """Partition of F_p^n induced by the value tuple of an ordered list of
    defining words (for polynomial factors, torus alphabets U_{k_i+1})."""

    def __init__(self, definers: Sequence[Word], polys: Sequence[NonclassicalPoly] | None = None):
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
        self.polys = tuple(polys) if polys is not None else None
        self._atoms: dict | None = None

    @classmethod
    def trivial(cls, p: int, n: int) -> "Factor":
        factor = cls.__new__(cls)
        factor.prime = p
        factor.nvars = n
        factor.domain_size = p**n
        factor.definers = ()
        factor.polys = ()
        factor._atoms = None
        return factor

    @classmethod
    def from_polys(
        cls, polys: Sequence[NonclassicalPoly], limits: FeasibilityLimits | None = None
    ) -> "Factor":
        return cls([poly.to_word(limits) for poly in polys], polys)

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

    def atoms(self) -> dict[tuple[int, ...], list[int]]:
        if self._atoms is None:
            atoms: dict[tuple[int, ...], list[int]] = {}
            for idx in range(self.domain_size):
                atoms.setdefault(self.atom_key(idx), []).append(idx)
            self._atoms = atoms
        return self._atoms

    def nominal_atoms(self) -> Iterable[tuple[int, ...]]:
        return itertools.product(*(range(w.modulus) for w in self.definers))

    def ensure_polys(self, limits: FeasibilityLimits | None = None) -> tuple[NonclassicalPoly, ...]:
        """Defining polynomials, fitting them from the tables if needed."""
        if self.polys is not None:
            return self.polys
        fitted = []
        for w in self.definers:
            if w.kind == "field":
                from .words import iota_word

                w = iota_word(w)
            max_depth = w.depth
            fitted.append(canonical_fit(w, max_depth, limits=limits))
        self.polys = tuple(fitted)
        return self.polys

    def refines(self, other: "Factor") -> bool:
        """Semantic refinement: equal keys here imply equal keys there."""
        seen: dict[tuple[int, ...], tuple[int, ...]] = {}
        for idx in range(self.domain_size):
            key = self.atom_key(idx)
            target = other.atom_key(idx)
            if seen.setdefault(key, target) != target:
                return False
        return True

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


def conditional_expectation(g: SimplexFunction, factor: Factor) -> SimplexFunction:
    """E[g | B]: constant on each atom, equal to the atom average."""
    if g.domain_size != factor.domain_size:
        raise ValueError("function and factor domains differ")
    keys = [factor.atom_key(i) for i in range(factor.domain_size)]
    conditioned, _ = _condition_on_keys(g, keys)
    return conditioned


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
            "trace": [
                {
                    "energy": frac_str(step.energy),
                    "violator": step.violator,
                }
                for step in self.trace
            ],
            "gamma": [
                {"atom": atom_repr(key), "dist": [frac_str(w) for w in row]}
                for key, row in sorted(self.gamma.items())
            ],
        }
        return json.dumps(payload, sort_keys=True)


def weak_regularize(
    g: SimplexFunction,
    family: Sequence[SimplexFunction],
    eps: Fraction,
) -> DecompositionResult:
    """Frieze-Kannan style decomposition against a family of distinguishers.

    Repeatedly conditions g on the factor of the chosen functions and adds
    the first family member whose agreement with the conditioned proxy
    differs from its agreement with g by more than eps.  The loop is
    deterministic: the family's own order is the scan order and the first
    violator wins.  Terminates within floor(1/eps^2) steps because every
    accepted step raises the proxy energy by at least eps^2.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    for f in family:
        if f.alphabet != g.alphabet or f.domain_size != g.domain_size:
            raise ValueError("family member shape mismatch")

    max_steps = math.floor(1 / (eps * eps))
    chosen: list[int] = []
    trace: list[TraceStep] = []
    target_agreements = [agreement_prob(g, f) for f in family]
    last_violator: int | None = None

    while True:
        keys = [
            tuple(family[i].table[x] for i in chosen)
            for x in range(g.domain_size)
        ]
        proxy, gamma = _condition_on_keys(g, keys)
        trace.append(TraceStep(energy(proxy), last_violator))
        violator = None
        for j, f in enumerate(family):
            gap = agreement_prob(proxy, f) - target_agreements[j]
            if gap > eps or -gap > eps:
                violator = j
                break
        if violator is None:
            break
        if len(chosen) >= max_steps:
            raise AssertionError(
                "energy increment bound violated; this should be impossible"
            )
        chosen.append(violator)
        last_violator = violator

    return DecompositionResult(
        eps=eps,
        chosen=tuple(chosen),
        gamma=gamma,
        trace=tuple(trace),
        proxy=proxy,
    )


@dataclass
class OneSidedResult:
    """Distinguishers plus one deterministic lookup table per family member."""

    eps: Fraction
    chosen: tuple[int, ...]
    gamma_maps: tuple[dict, ...]
    prime: int
    nvars: int
    _keys: tuple[tuple[int, ...], ...]

    def composed_word(self, f_index: int) -> Word:
        """The deterministic proxy Gamma_f(h_1(x), ..., h_c(x)) as a word.
        Keys never seen by the decomposition map to 0 by convention."""
        table = self.gamma_maps[f_index]
        return Word(
            self.prime,
            self.nvars,
            "field",
            0,
            tuple(table.get(key, 0) for key in self._keys),
        )


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
    embedded_g = SimplexFunction.from_field_word(g)
    embedded_family = [SimplexFunction.from_field_word(f) for f in family]
    result = weak_regularize(embedded_g, embedded_family, eps)

    keys = tuple(
        tuple(family[i].values[x] for i in result.chosen)
        for x in range(g.length)
    )
    atoms: dict[tuple[int, ...], list[int]] = {}
    for idx, key in enumerate(keys):
        atoms.setdefault(key, []).append(idx)

    gamma_maps = []
    for f in family:
        table = {}
        for key, idxs in atoms.items():
            counts = [0] * g.prime
            for i in idxs:
                counts[f.values[i]] += 1
            best = max(range(g.prime), key=lambda v: (counts[v], -v))
            table[key] = best
        gamma_maps.append(table)

    return OneSidedResult(
        eps=Fraction(eps),
        chosen=result.chosen,
        gamma_maps=tuple(gamma_maps),
        prime=g.prime,
        nvars=g.nvars,
        _keys=keys,
    )


def atom_uniformity(
    factor: Factor, limits: FeasibilityLimits | None = None
) -> tuple[Fraction, tuple[int, ...]]:
    """Max over nominal atoms b of |Pr[B(x) = b] - 1/||B|||, exact, plus
    the first atom attaining it.  The operational regularity certificate."""
    lim = resolve(limits)
    lim.check_cases(factor.norm, "nominal atom scan")
    counts = {key: len(idxs) for key, idxs in factor.atoms().items()}
    nominal = Fraction(1, factor.norm)
    total = factor.domain_size
    worst_dev = Fraction(-1)
    worst_atom: tuple[int, ...] = ()
    for atom in factor.nominal_atoms():
        dev = abs(Fraction(counts.get(atom, 0), total) - nominal)
        if dev > worst_dev:
            worst_dev = dev
            worst_atom = atom
    return worst_dev, worst_atom


# ---- rank ------------------------------------------------------------------

EXACT = "exact"
INFINITE = "infinite"
LOWER_BOUND = "lower_bound"


@dataclass(frozen=True)
class RankResult:
    kind: str
    value: int | None
    witness: tuple[NonclassicalPoly, ...] | None = None

    def exceeds(self, r: int) -> bool:
        if self.kind == EXACT:
            return self.value > r
        if self.kind == LOWER_BOUND:
            return self.value >= r
        return True


def _partition_signature(values: Sequence[int]) -> tuple[int, ...]:
    labels: dict[int, int] = {}
    sig = []
    for v in values:
        sig.append(labels.setdefault(v, len(labels)))
    return tuple(sig)


def degree_candidates(
    p: int, n: int, dmax: int, limits: FeasibilityLimits | None = None
) -> list[tuple[NonclassicalPoly, tuple[int, ...]]]:
    """All distinct partitions induced by nonconstant polynomials of degree
    <= dmax, each with one defining polynomial (first in coefficient-lex
    order).  Two polynomials with the same fibers refine identically, so
    deduplicating partitions loses nothing for measurability searches."""
    lim = resolve(limits)
    monomials = [
        m for m in canonical_monomials(p, n, max(0, (dmax - 1) // (p - 1)))
        if m.degree(p) <= dmax
    ]
    count = p ** len(monomials)
    lim.check_cases(count, "degree-candidate enumeration")
    seen: dict[tuple[int, ...], NonclassicalPoly] = {}
    out = []
    for combo in itertools.product(range(p), repeat=len(monomials)):
        terms = {m: c for m, c in zip(monomials, combo) if c}
        poly = NonclassicalPoly(p, n, terms)
        word = poly.to_word(lim)
        sig = _partition_signature(word.values)
        if len(set(sig)) <= 1:
            continue  # constants never refine anything
        if sig not in seen:
            seen[sig] = poly
            out.append((poly, sig))
    return out


def _measurable(f_values: Sequence[int], sigs: Sequence[tuple[int, ...]]) -> bool:
    atom_value: dict[tuple[int, ...], int] = {}
    for idx, v in enumerate(f_values):
        key = tuple(s[idx] for s in sigs)
        if atom_value.setdefault(key, v) != v:
            return False
    return True


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
    the budget is exhausted.
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
    for r in range(1, budget + 1):
        lim.check_cases(math.comb(len(candidates), r), "rank tuple search")
        for combo in itertools.combinations(candidates, r):
            if _measurable(f.values, [sig for _, sig in combo]):
                return RankResult(EXACT, r, tuple(poly for poly, _ in combo))
    return RankResult(LOWER_BOUND, budget)


@dataclass(frozen=True)
class FactorRankResult:
    rank: RankResult
    combination: tuple[int, ...] | None
    target_degree: int | None


def _combination_space(factor: Factor) -> Iterable[tuple[int, ...]]:
    ranges = [range(w.modulus) for w in factor.definers]
    for combo in itertools.product(*ranges):
        if any(combo):
            yield combo


def _combination_poly(
    polys: Sequence[NonclassicalPoly], combo: Sequence[int]
) -> tuple[NonclassicalPoly, int]:
    p = polys[0].prime
    n = polys[0].nvars
    acc = zero_poly(p, n)
    target_degree = 0
    for a, poly in zip(combo, polys):
        scaled = poly.scalar_mul(a)
        target_degree = max(target_degree, scaled.degree())
        acc = acc.add(scaled)
    return acc, target_degree


def factor_rank_bruteforce(
    factor: Factor,
    budget: int,
    limits: FeasibilityLimits | None = None,
) -> FactorRankResult:
    """Least rank over nonzero coefficient combinations of the definers.

    Each combination (a_1 mod p^{k_1+1}, ..., a_c mod p^{k_c+1}) != 0 is
    scored by rank_{d}(sum a_i h_i) with d = max_i deg(a_i h_i); the factor
    rank is the minimum.  Exact at desk scale, otherwise a lower bound.
    An empty factor has infinite rank (no nonzero combination exists).
    """
    lim = resolve(limits)
    if factor.size == 0:
        return FactorRankResult(RankResult(INFINITE, None), None, None)
    polys = factor.ensure_polys(lim)
    lim.check_cases(factor.norm - 1, "coefficient combinations")

    best: FactorRankResult | None = None

    def better(a: RankResult, b: RankResult) -> bool:
        order = {EXACT: 0, LOWER_BOUND: 1, INFINITE: 2}
        ka, kb = order[a.kind], order[b.kind]
        if ka != kb:
            return ka < kb
        if a.kind == EXACT:
            return a.value < b.value
        return False

    for combo in _combination_space(factor):
        poly, d_target = _combination_poly(polys, combo)
        if d_target == 0:
            result = RankResult(EXACT, 0, ())
        else:
            result = rank_bruteforce(poly.to_word(lim), d_target, budget, lim)
        if best is None or better(result, best.rank):
            best = FactorRankResult(result, combo, d_target)
            if result.kind == EXACT and result.value == 0:
                break
    return best


@dataclass(frozen=True)
class RefineReport:
    achieved: bool
    deviation: Fraction
    iterations: int
    message: str


def refine_to_uniform(
    factor: Factor,
    eps: Fraction,
    max_iter: int,
    limits: FeasibilityLimits | None = None,
    rank_budget: int = 1,
) -> tuple[Factor, RefineReport]:
    """Uniformity-driven refinement of a polynomial factor.

    Repeatedly measures atom uniformity; while the deviation exceeds eps,
    searches for a nonzero coefficient combination of the definers with
    brute-force rank <= rank_budget whose coefficient at some definer is a
    unit, and replaces that definer by the rank witnesses (lower-degree
    polynomials).  Every replacement is a semantic refinement: the dropped
    definer is recoverable from the remaining ones plus the witnesses.

    This is an honest desk-scale substitute driven by the observable
    consequence (atom-size uniformity); the report certifies only the
    produced factor.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    lim = resolve(limits)
    current = factor
    for iteration in range(max_iter + 1):
        deviation, _ = atom_uniformity(current, lim)
        if deviation <= eps:
            return current, RefineReport(
                True, deviation, iteration, "deviation within eps"
            )
        if iteration == max_iter:
            break
        polys = current.ensure_polys(lim)
        replaced = False
        for combo in _combination_space(current):
            combo_poly, d_target = _combination_poly(polys, combo)
            unit_positions = [
                i
                for i, a in enumerate(combo)
                if a % current.prime != 0
            ]
            if not unit_positions:
                continue
            if d_target == 0:
                result = RankResult(EXACT, 0, ())
            else:
                result = rank_bruteforce(
                    combo_poly.to_word(lim), d_target, rank_budget, lim
                )
            if result.kind == EXACT and result.value <= rank_budget:
                drop = unit_positions[0]
                new_polys = [
                    poly for i, poly in enumerate(polys) if i != drop
                ] + list(result.witness or ())
                current = Factor.from_polys(new_polys, lim)
                replaced = True
                break
        if not replaced:
            deviation, _ = atom_uniformity(current, lim)
            return current, RefineReport(
                False,
                deviation,
                iteration,
                "no low-rank combination with a unit coefficient",
            )
    deviation, _ = atom_uniformity(current, lim)
    return current, RefineReport(
        False, deviation, max_iter, "iteration budget exhausted"
    )


def tensorize(polys: Sequence[NonclassicalPoly]) -> list[NonclassicalPoly]:
    """Place each polynomial on its own fresh block of n variables.

    The i-th output is the i-th input with variables renamed into block i
    of an m*n-variable domain; degrees and depths are unchanged, and the
    joint factor's atom distribution becomes the product of the marginals.
    """
    polys = list(polys)
    if not polys:
        return []
    p, n = polys[0].prime, polys[0].nvars
    for poly in polys:
        if poly.prime != p or poly.nvars != n:
            raise ValueError("tensorize needs a family with common (p, n)")
    m = len(polys)
    return [poly.embed(m * n, i * n) for i, poly in enumerate(polys)]
