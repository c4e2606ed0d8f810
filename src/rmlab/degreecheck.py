"""Degree certification through iterated additive derivatives.

A table f: F_p^n -> T has degree <= d exactly when every (d+1)-fold
derivative D_{a_1}...D_{a_{d+1}} f vanishes.  Shifts commute and
T_{e_i} = I + Delta_i with Delta_i = D_{e_i}, so every D_a is an integer
polynomial in the Delta_i without constant term: the (d+1)-fold derivatives
all vanish exactly when Delta^alpha f = 0 for every |alpha| = d+1.  The
exact basis walk checks those chains depth first, pruning zero tables, so
it builds at most C(n+d+1, d+1) tables where a tuple scan needs p^{n(d+1)}.

Witnesses (directions and a point) re-verify independently through the
slow derivative tables in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable

import numpy as np

from .limits import FeasibilityLimits, resolve
from .torus import TorusValue
from .words import TORUS, Word, index_to_point

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"


@dataclass(frozen=True)
class DegreeWitness:
    """Directions a_1..a_{d+1} and a point where the iterated derivative
    is nonzero."""

    directions: tuple[tuple[int, ...], ...]
    point: tuple[int, ...]
    value: TorusValue


@dataclass(frozen=True)
class DegreeCheck:
    """``cases`` is the nominal tuple count p^{n(d+1)} and ``mode`` labels
    its regime (``exhaustive`` when it fits the cap, ``sampled`` otherwise);
    ``tables`` counts the derivative tables the exact walk actually built."""

    ok: bool
    mode: str
    cases: int
    tables: int
    witness: DegreeWitness | None = None


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


def verify_degree_by_derivatives(
    word: Word, d: int, limits: FeasibilityLimits | None = None
) -> DegreeCheck:
    """Check that all (d+1)-fold derivatives of the table vanish.

    Runs the exact basis walk, which raises :class:`FeasibilityError` when
    its C(n+d+1, d+1) chains exceed the cap.
    """
    if word.kind != TORUS:
        raise ValueError("degree checks act on torus-valued words")
    if d < 0:
        raise ValueError("degree bound must be >= 0")
    lim = resolve(limits)
    lim.check_cases(comb(word.nvars + d + 1, d + 1), "basis derivative walk")
    nominal = (word.prime**word.nvars) ** (d + 1)
    mode = EXHAUSTIVE if nominal <= lim.exhaustive_cap else SAMPLED
    witness, tables = _basis_walk(word, d)
    return DegreeCheck(witness is None, mode, nominal, tables, witness)
