"""Slow reference implementations for differential tests.

These are the Python Fraction and dict versions of agreement, energy,
conditional expectation, the weak regularity loop, the one-sided plurality
tables and the rank search.  The library runs the same definitions on
integer arrays; the tests require both to give equal results.  The ball
searches and the minimum distance are recounted here point by point over
``enumerate_code``, and degree witnesses are re-verified through additive
derivatives taken one index permutation at a time.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, Sequence

from rmlab import CodeParams, NonclassicalPoly, SimplexFunction, Word, enumerate_code, random_field_word
from rmlab.limits import resolve
from rmlab.polynomial import canonical_monomials
from rmlab.regularity import (
    EXACT, INFINITE, LOWER_BOUND, DecompositionResult, RankResult, TraceStep,
)
from rmlab.words import TORUS


def shift_indices(p: int, n: int, a: Sequence[int]) -> list[int]:
    """Index permutation sigma with sigma[i] = index of x+a for x = point(i)."""
    if len(a) != n:
        raise ValueError("direction has wrong dimension")
    offsets = [0] * (p**n)
    weight = 1
    for pos in range(n - 1, -1, -1):
        step = a[pos] % p
        if step:
            for idx in range(p**n):
                digit = (idx // weight) % p
                offsets[idx] += ((digit + step) % p - digit) * weight
        weight *= p
    return [idx + off for idx, off in enumerate(offsets)]


def derivative_table(word: Word, a: Sequence[int]) -> Word:
    """Additive derivative in direction a: (D_a f)(x) = f(x+a) - f(x)."""
    if word.kind != TORUS:
        raise ValueError("derivatives act on torus-valued words")
    if len(a) != word.nvars:
        raise ValueError(f"direction has {len(a)} coordinates, word has {word.nvars}")
    sigma = shift_indices(word.prime, word.nvars, a)
    vals, m = word.values, word.modulus
    return Word(
        word.prime, word.nvars, TORUS, word.depth,
        tuple((vals[sigma[i]] - vals[i]) % m for i in range(len(vals))),
    )


def apply_derivative_chain(word: Word, directions: Sequence[Sequence[int]]) -> Word:
    """Iterated derivative, the slow reference path for degree witnesses."""
    out = word
    for a in directions:
        out = derivative_table(out, a)
    return out


def agreement_prob(f: SimplexFunction, g: SimplexFunction) -> Fraction:
    total = Fraction(0)
    for fr, gr in zip(f.table, g.table):
        total += sum(a * b for a, b in zip(fr, gr))
    return total / f.domain_size


def energy(f: SimplexFunction) -> Fraction:
    total = Fraction(0)
    for row in f.table:
        total += sum(w * w for w in row)
    return total / f.domain_size


def average_rows(rows: Iterable[tuple[Fraction, ...]], alphabet: int) -> tuple[Fraction, ...]:
    acc = [Fraction(0)] * alphabet
    count = 0
    for row in rows:
        count += 1
        for i, w in enumerate(row):
            acc[i] += w
    if count == 0:
        raise ValueError("empty atom has no average")
    return tuple(w / count for w in acc)


def condition_on_keys(g: SimplexFunction, keys: Sequence) -> tuple[SimplexFunction, dict]:
    atoms: dict = {}
    for idx, key in enumerate(keys):
        atoms.setdefault(key, []).append(idx)
    gamma = {
        key: average_rows((g.table[i] for i in idxs), g.alphabet)
        for key, idxs in atoms.items()
    }
    table = tuple(gamma[key] for key in keys)
    return SimplexFunction(g.alphabet, table), gamma


def conditional_expectation(g: SimplexFunction, factor) -> SimplexFunction:
    keys = [factor.atom_key(i) for i in range(factor.domain_size)]
    return condition_on_keys(g, keys)[0]


def weak_regularize(
    g: SimplexFunction, family: Sequence[SimplexFunction], eps: Fraction
) -> DecompositionResult:
    """The decomposition loop with one Fraction agreement per member and
    round; the first violator in family order wins."""
    eps = Fraction(eps)
    max_steps = math.floor(1 / (eps * eps))
    chosen: list[int] = []
    trace: list[TraceStep] = []
    target_agreements = [agreement_prob(g, f) for f in family]
    last_violator = None
    while True:
        keys = [tuple(family[i].table[x] for i in chosen) for x in range(g.domain_size)]
        proxy, gamma = condition_on_keys(g, keys)
        trace.append(TraceStep(energy(proxy), last_violator))
        violator = None
        for j, f in enumerate(family):
            gap = agreement_prob(proxy, f) - target_agreements[j]
            if gap > eps or -gap > eps:
                violator = j
                break
        if violator is None:
            break
        assert len(chosen) < max_steps, "energy increment bound violated"
        chosen.append(violator)
        last_violator = violator
    return DecompositionResult(eps, tuple(chosen), gamma, tuple(trace), proxy)


def one_sided_composed(
    g: Word, family: Sequence[Word], eps: Fraction
) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Chosen distinguishers and every member's composed table: the
    plurality value of f on each atom, ties to the smallest letter."""
    embed = SimplexFunction.from_field_word
    result = weak_regularize(embed(g), [embed(f) for f in family], eps)
    keys = [tuple(family[i].values[x] for i in result.chosen) for x in range(g.length)]
    atoms: dict[tuple[int, ...], list[int]] = {}
    for idx, key in enumerate(keys):
        atoms.setdefault(key, []).append(idx)
    composed = []
    for f in family:
        table = {}
        for key, idxs in atoms.items():
            counts = [0] * g.prime
            for i in idxs:
                counts[f.values[i]] += 1
            table[key] = max(range(g.prime), key=lambda v: (counts[v], -v))
        composed.append(tuple(table[key] for key in keys))
    return result.chosen, composed


def partition_signature(values: Sequence[int]) -> tuple[int, ...]:
    """Labels in order of first occurrence."""
    labels: dict[int, int] = {}
    return tuple(labels.setdefault(v, len(labels)) for v in values)


def measurable(f_values: Sequence[int], sigs: Sequence[tuple[int, ...]]) -> bool:
    atom_value: dict[tuple[int, ...], int] = {}
    for idx, v in enumerate(f_values):
        key = tuple(s[idx] for s in sigs)
        if atom_value.setdefault(key, v) != v:
            return False
    return True


def degree_candidates(p: int, n: int, dmax: int):
    """The monomials of degree <= dmax, and one (coefficients, signature)
    pair per distinct nonconstant partition, first in coefficient-lex
    order.  Each monomial is evaluated once through ``to_word`` at the
    common depth; combinations are summed in Python along the
    coefficient-lex tree."""
    monomials = [
        m for m in canonical_monomials(p, n, max(0, (dmax - 1) // (p - 1)))
        if m.degree(p) <= dmax
    ]
    depth = max(m.k for m in monomials)
    mod = p ** (depth + 1)
    tables = [
        [v * p ** (depth - m.k) for v in NonclassicalPoly(p, n, {m: 1}).to_word().values]
        for m in monomials
    ]
    seen: set[tuple[int, ...]] = set()
    out = []

    def walk(table: list[int], combo: tuple[int, ...]) -> None:
        if len(combo) == len(monomials):
            sig = partition_signature(table)
            if len(set(sig)) > 1 and sig not in seen:
                seen.add(sig)
                out.append((combo, sig))
            return
        for c in range(p):
            walk([(a + c * b) % mod for a, b in zip(table, tables[len(combo)])], combo + (c,))

    walk([0] * p**n, ())
    return monomials, out


def rank_bruteforce(f: Word, d: int, budget: int, limits=None) -> RankResult:
    if d == 1:
        return RankResult(EXACT, 0, ()) if f.is_constant() else RankResult(INFINITE, None)
    if f.is_constant():
        return RankResult(EXACT, 0, ())
    monomials, candidates = degree_candidates(f.prime, f.nvars, d - 1)
    for r in range(1, budget + 1):
        for combo in itertools.combinations(candidates, r):
            if measurable(f.values, [sig for _, sig in combo]):
                terms = [{m: c for m, c in zip(monomials, coeffs) if c} for coeffs, _ in combo]
                return RankResult(EXACT, r, tuple(NonclassicalPoly(f.prime, f.nvars, t) for t in terms))
    return RankResult(LOWER_BOUND, budget)


def atoms(factor) -> dict[tuple[int, ...], list[int]]:
    out: dict[tuple[int, ...], list[int]] = {}
    for idx in range(factor.domain_size):
        out.setdefault(factor.atom_key(idx), []).append(idx)
    return out


def refines(factor, other) -> bool:
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for idx in range(factor.domain_size):
        if seen.setdefault(factor.atom_key(idx), other.atom_key(idx)) != other.atom_key(idx):
            return False
    return True


def atom_uniformity(factor) -> tuple[Fraction, tuple[int, ...]]:
    """Max deviation over every nominal atom in product order, first wins."""
    counts = {key: len(idxs) for key, idxs in atoms(factor).items()}
    nominal = Fraction(1, factor.norm)
    worst_dev, worst_atom = Fraction(-1), ()
    for atom in itertools.product(*(range(w.modulus) for w in factor.definers)):
        dev = abs(Fraction(counts.get(atom, 0), factor.domain_size) - nominal)
        if dev > worst_dev:
            worst_dev, worst_atom = dev, atom
    return worst_dev, worst_atom


def min_distance_pairwise(params: CodeParams, limits=None) -> Fraction:
    """All-pairs minimum distance; tiny sizes only (cross-check path)."""
    words = [w.values for _, w in enumerate_code(params, limits)]
    lim = resolve(limits)
    lim.check_cases(len(words) * (len(words) - 1) // 2, "pairwise distances")
    best = params.block_length
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            dist = sum(1 for a, b in zip(words[i], words[j]) if a != b)
            best = min(best, dist)
    return Fraction(best, params.block_length)


def ball_members(params: CodeParams, g: Word, eta: Fraction) -> list[str]:
    """Texts of the codewords within eta of g, in enumeration order, from
    distances counted point by point."""
    out = []
    for poly, word in enumerate_code(params):
        disagree = sum(1 for a, b in zip(word.values, g.values) if a != b)
        if Fraction(disagree, params.block_length) <= eta:
            out.append(poly.to_text())
    return out


def sampled_max_list_size(
    params: CodeParams, eta: Fraction, samples: int, seed: int, include_codeword_centers: bool
) -> tuple[int, str, Word]:
    """(count, label, center) of the first center with the largest ball."""
    rng = random.Random(seed)
    centers = [(f"sample:{i}", random_field_word(params.p, params.n, rng)) for i in range(samples)]
    if include_codeword_centers:
        centers += [(f"codeword:{j}", w) for j, (_, w) in enumerate(enumerate_code(params))]
    best = None
    for label, g in centers:
        count = len(ball_members(params, g, eta))
        if best is None or count > best[0]:
            best = (count, label, g)
    return best
