"""Degree certification through iterated additive derivatives.

A table f: F_p^n -> T has degree <= d exactly when every (d+1)-fold
derivative D_{a_1}...D_{a_{d+1}} f vanishes.  Shifts commute and
T_{e_i} = I + Delta_i with Delta_i = D_{e_i}, so every D_a is an integer
polynomial in the Delta_i without constant term: the (d+1)-fold derivatives
all vanish exactly when Delta^alpha f = 0 for every |alpha| = d+1.  The
exact basis walk checks those chains depth first, pruning zero tables, so
it builds at most C(n+d+1, d+1) tables where a tuple scan needs p^{n(d+1)}.
Sampled mode checks a seeded batch of random direction tuples instead when
the walk would build more tables than the batch; that certifies a true
degree bound but refutes one only when it happens to hit a witness.

Witnesses (directions and a point) re-verify independently through
``words.derivative_table``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .limits import FeasibilityLimits, resolve
from .torus import TorusValue
from .words import TORUS, Word, derivative_table, index_to_point, shift_indices

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"
AUTO = "auto"


@dataclass(frozen=True)
class DegreeWitness:
    """Directions a_1..a_{d+1} and a point where the iterated derivative
    is nonzero."""

    directions: tuple[tuple[int, ...], ...]
    point: tuple[int, ...]
    value: TorusValue


@dataclass(frozen=True)
class DegreeCheck:
    """``cases`` is the nominal count (p^{n(d+1)} tuples when exhaustive,
    ``trials`` when sampled); ``tables`` counts the derivative tables the
    check actually built."""

    ok: bool
    mode: str
    cases: int
    tables: int
    witness: DegreeWitness | None = None


def apply_derivative_chain(word: Word, directions: Sequence[Sequence[int]]) -> Word:
    """Iterated derivative, the slow reference path used for re-checks."""
    out = word
    for a in directions:
        out = derivative_table(out, a)
    return out


def _witness(word: Word, directions: Iterable, table: np.ndarray) -> DegreeWitness:
    """The first nonzero point of a derivative table, as a witness."""
    flat = table.reshape(-1)
    idx = int(np.flatnonzero(flat)[0])
    return DegreeWitness(
        directions=tuple(directions),
        point=index_to_point(word.prime, word.nvars, idx),
        value=TorusValue(word.prime, int(flat[idx]), word.depth),
    )


def _basis_walk(word: Word, d: int) -> tuple[DegreeWitness | None, int]:
    """Exact: the witness of the first nonzero chain of length d+1 (or
    None) and the number of tables built.  Axis i of the (p,)*n view is
    x_{i+1}, so rolling it by -1 shifts by e_{i+1}."""
    p, n, m = word.prime, word.nvars, word.modulus
    tables = 0
    # depth-first with one (table, chain, next axis) entry per chain length,
    # so at most d+2 tables are alive and no Python recursion is needed
    stack = [(np.array(word.values, dtype=np.int64).reshape((p,) * n), (), 0)]
    while stack:
        table, chain, i = stack.pop()
        if i == n:
            continue
        stack.append((table, chain, i + 1))
        diff = (np.roll(table, -1, axis=i) - table) % m
        tables += 1
        if not diff.any():
            continue
        if len(chain) == d:
            units = (tuple(int(j == k) for j in range(n)) for k in chain + (i,))
            return _witness(word, units, diff), tables
        stack.append((diff, chain + (i,), i))
    return None, tables


class _Shifts:
    """Per-direction gather arrays for one (p, n) domain, built lazily."""

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self._cache: dict[int, np.ndarray] = {}

    def sigma(self, a_idx: int) -> np.ndarray:
        arr = self._cache.get(a_idx)
        if arr is None:
            a = index_to_point(self.p, self.n, a_idx)
            arr = np.array(shift_indices(self.p, self.n, a), dtype=np.int64)
            self._cache[a_idx] = arr
        return arr


def _sample(
    word: Word, d: int, trials: int, seed: int
) -> tuple[DegreeWitness | None, int]:
    """Seeded random direction tuples; returns (witness or None, tables)."""
    p, n = word.prime, word.nvars
    size = p**n
    m = word.modulus
    rng = random.Random(seed)
    tuples = [
        tuple(rng.randrange(size) for _ in range(d + 1)) for _ in range(trials)
    ]
    shifts = _Shifts(p, n)
    # a full (size x size) shift matrix enables pure-numpy gathers; beyond
    # that footprint fall back to per-direction rows
    sigma_all = (
        np.stack([shifts.sigma(a) for a in range(size)])
        if size * size <= 8_000_000
        else None
    )
    base = np.array(word.values, dtype=np.int64)

    chunk = 2048
    tables = 0
    for start in range(0, trials, chunk):
        block = tuples[start : start + chunk]
        dirs = np.array(block, dtype=np.int64)
        rows = len(block)
        tables += rows * (d + 1)
        v = np.tile(base, (rows, 1))
        row_idx = np.arange(rows)[:, None]
        for level in range(d + 1):
            if sigma_all is not None:
                perm = sigma_all[dirs[:, level]]
            else:
                perm = np.stack([shifts.sigma(t[level]) for t in block])
            v = (v[row_idx, perm] - v) % m
        nonzero_rows = np.nonzero(v.any(axis=1))[0]
        if nonzero_rows.size:
            row = int(nonzero_rows[0])
            directions = (index_to_point(p, n, a) for a in block[row])
            return _witness(word, directions, v[row]), tables
    return None, tables


def verify_degree_by_derivatives(
    word: Word,
    d: int,
    mode: str = AUTO,
    trials: int = 10_000,
    seed: int = 0,
    limits: FeasibilityLimits | None = None,
) -> DegreeCheck:
    """Check that all (d+1)-fold derivatives of the table vanish.

    ``mode`` is ``exhaustive``, ``sampled``, or ``auto`` (exhaustive when
    the nominal tuple count p^{n(d+1)} fits the cap, sampled otherwise).
    Exhaustive mode raises :class:`FeasibilityError` over the cap, else runs
    the exact basis walk.  Sampled mode runs the same walk when its
    C(n+d+1, d+1) chains fit in ``trials * (d+1)`` tables and the cap, and
    otherwise checks ``trials`` seeded random direction tuples.
    """
    if word.kind != TORUS:
        raise ValueError("degree checks act on torus-valued words")
    if d < 0:
        raise ValueError("degree bound must be >= 0")
    lim = resolve(limits)
    nominal = (word.prime**word.nvars) ** (d + 1)
    if mode == AUTO:
        mode = EXHAUSTIVE if nominal <= lim.exhaustive_cap else SAMPLED
    if mode == EXHAUSTIVE:
        lim.check_cases(nominal, "exhaustive derivative check")
    elif mode != SAMPLED:
        raise ValueError(f"unknown mode {mode!r}")
    chains = comb(word.nvars + d + 1, d + 1)
    if mode == EXHAUSTIVE or chains <= min(trials * (d + 1), lim.exhaustive_cap):
        witness, tables = _basis_walk(word, d)
    else:
        witness, tables = _sample(word, d, trials, seed)
    cases = nominal if mode == EXHAUSTIVE else trials
    return DegreeCheck(witness is None, mode, cases, tables, witness)
