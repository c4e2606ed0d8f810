"""The benchmark's workloads: inputs made from a seed, the operations of one
pass, and the checks on their outputs.

A pass runs its operations one after another in one process (a closed loop,
``--jobs 1``).  An operation with a CLI subcommand runs through
``rmlab.cli.main(argv)`` with its stdout captured; the rest call the
library.  Checks run after the timed pass and never call the code path
they check where an independent recount is cheap.

Input files go to ``.perfbench/<workload>-<seed>/`` under the checkout,
relative to it: ``list-size`` prints ``file:<path>``, so the path must
depend only on the workload and the seed or stdout would change per run.

Nothing here imports ``rmlab`` at module level, so that the caller can time
that import.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

INPUT_ROOT = ".perfbench"

# sha256 of the joined stdout of every operation of a pass at seed 0,
# recorded from the code this benchmark was defined on.  The lab promises
# byte-identical stdout, so a change here is a behaviour change.
SEED0_DIGESTS = {
    "claims": "ff2348cf5ab8629dff353665591c51f6dd8fd1d0e7481c2f69e97d06ff81723a",
    "list_decode": "27636f3b13df3db938987227e8a4cb6e41dc8a97f8fdd14472be0314d3683dcc",
    "regularity": "4ba4127c065dde8d742e674791bbb398f62d3c4d22bba79f7d49472456d6c681",
}


@dataclass
class Op:
    """One operation of a pass: ``call`` returns (exit code, stdout text);
    ``check`` gets both after the pass and says whether they are right."""

    label: str
    call: Callable[[], tuple[int, str]]
    check: Callable[[int, str], bool]
    cli: bool = False


def run_cli(argv: list[str]) -> tuple[int, str]:
    from rmlab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--jobs", "1"] + argv)
    return code, out.getvalue()


def cli_op(label: str, argv: list[str], check: Callable[[int, str], bool]) -> Op:
    return Op(label, lambda: run_cli(argv), check, cli=True)


def digest(outputs: list[str]) -> str:
    h = hashlib.sha256()
    for text in outputs:
        h.update(text.encode("utf-8"))
    return h.hexdigest()


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _csv_rows(stdout: str) -> list[dict]:
    lines = stdout.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# rm-list-lab v1 "):
        raise ValueError("not a CSV result")
    columns = lines[1].split(",")
    return [dict(zip(columns, line.split(","))) for line in lines[2:]]


def _checked(fn: Callable[[int, str], bool]) -> Callable[[int, str], bool]:
    """A check that treats unparsable output as a failed operation."""

    def check(code: int, stdout: str) -> bool:
        try:
            return bool(fn(code, stdout))
        except (ArithmeticError, LookupError, TypeError, ValueError, OSError):
            return False

    return check


# ---- independent oracles ------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _points(p: int, n: int) -> np.ndarray:
    """F_p^n in row-major order (x_1 the most significant digit)."""
    return np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64)


def _classical_table(p: int, n: int, terms: list[tuple[int, tuple[int, ...]]]) -> np.ndarray:
    pts = _points(p, n)
    acc = np.zeros(len(pts), dtype=np.int64)
    for c, exps in terms:
        acc = (acc + c * np.prod(pts ** np.array(exps, dtype=np.int64), axis=1)) % p
    return acc


def _monomials(p: int, n: int, d: int) -> list[tuple[int, ...]]:
    return [e for e in itertools.product(range(p), repeat=n) if sum(e) <= d]


@functools.lru_cache(maxsize=None)
def _codewords(p: int, n: int, d: int) -> np.ndarray:
    """Every codeword of RM_p(n, d) as one row, built without rmlab."""
    basis = np.stack([_classical_table(p, n, [(1, e)]) for e in _monomials(p, n, d)])
    coeffs = np.array(list(itertools.product(range(p), repeat=len(basis))), dtype=np.int64)
    return (coeffs @ basis % p).astype(np.uint8)


def _ball_recount(code: tuple[int, int, int], center: np.ndarray, eta: Fraction) -> int:
    table = _codewords(*code)
    disagree = (table != center.astype(np.uint8)[None, :]).sum(axis=1)
    return int((disagree * eta.denominator <= eta.numerator * table.shape[1]).sum())


def _parse_poly_terms(text: str) -> tuple[int, int, list[tuple[int, tuple[int, ...], int]]]:
    lines = [ln.split() for ln in text.strip().splitlines()]
    header = dict(part.split("=", 1) for part in lines[0])
    terms = []
    for fields in lines[1:]:
        f = dict(part.split("=", 1) for part in fields)
        terms.append((int(f["c"]), tuple(int(v) for v in f["e"].split(",")), int(f["k"])))
    return int(header["p"]), int(header["n"]), terms


def _read_word_values(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array([int(t) for t in fh.read().split()[3:]], dtype=np.int64)


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


# ---- claims -------------------------------------------------------------------

SEEDED_CLAIMS = ("ML_UNIQUE", "SCALAR_DEGREE", "DEG_COEF", "THM1_DESK")
EXPECTED_FAIL = {"THM1_DESK"}  # acceptance criterion 9, red by design


def claims_plan(seed: int) -> list[tuple[str, dict]]:
    """The default ``verify-all`` plan; a nonzero seed replaces ``seed`` in
    the seeded claims through the config-override mechanism."""
    from rmlab import verify

    config = None
    if seed:
        config = verify.parse_run_config(
            "".join(f"{claim}.seed={seed}\n" for claim in SEEDED_CLAIMS)
        )
    return verify.planned_runs(config)


def claims_row_labels() -> list[str]:
    """One label per row of the default plan; the per-row times use them."""
    return [f"verify.{claim}.{i}" for i, (claim, _) in enumerate(claims_plan(0))]


def claims_ops(seed: int) -> list[Op]:
    def run_row(claim: str, params: dict) -> tuple[int, str]:
        from rmlab import verify

        report = verify.run_check(claim, params)
        return (0 if report.passed else 1), report.to_json() + "\n"

    def check_row(claim: str) -> Callable[[int, str], bool]:
        want = "fail" if claim in EXPECTED_FAIL else "pass"
        return _checked(lambda code, out: json.loads(out)["status"] == want)

    return [
        Op(label, lambda c=claim, p=params: run_row(c, p), check_row(claim))
        for label, (claim, params) in zip(claims_row_labels(), claims_plan(seed))
    ]


# ---- list_decode --------------------------------------------------------------

# (p, n, d) with two radii each: the lower near delta, the upper with
# hundreds of ball members per random center.
BALL_CODES = (((2, 5, 2), ("1/4", "9/32")), ((3, 3, 2), ("1/3", "11/27")))
BALL_CENTERS = 14
WIDE_CODE, WIDE_RADIUS, WIDE_CENTERS = (2, 10, 1), "15/32", 8
MAX_LIST_NS, MAX_LIST_RADIUS, MAX_LIST_SAMPLES = (5, 6, 7, 8), "7/16", 200
CODEWORD_CODE, CODEWORD_RADIUS, CODEWORD_CENTERS = (2, 4, 2), "1/4", 20
MIN_DISTANCE_CODES = ((2, 5, 2), (3, 3, 2), (2, 4, 2), (2, 10, 1), (5, 2, 2))
TIGHTNESS = (2, 3, 1, 6)  # p, d, e, n


def _code_flags(code: tuple[int, int, int]) -> list[str]:
    p, n, d = code
    return ["--p", str(p), "--n", str(n), "--d", str(d)]


def _check_list_size(code, radius: str, center_path: str | None, members_path: str | None):
    """The printed count equals an independent recount; written members are
    distinct codewords inside the ball and as many as the count."""
    p, n, d = code
    eta = _frac(radius)

    def check(exit_code: int, stdout: str) -> bool:
        (row,) = _csv_rows(stdout)
        count = int(row["count"])
        # A codeword center has the zero word's ball size: balls are
        # translation invariant.
        center = np.zeros(p**n, dtype=np.int64) if center_path is None else _read_word_values(center_path)
        if exit_code != 0 or count != _ball_recount(code, center, eta):
            return False
        if members_path is None:
            return True
        with open(members_path, encoding="utf-8") as fh:
            (payload,) = [json.loads(line) for line in fh if line.strip()]
        members = payload["members"]
        if payload["count"] != count or len(members) != count or len(set(members)) != count:
            return False
        for text in members:
            _, _, terms = _parse_poly_terms(text)
            if any(k != 0 or sum(e) > d or max(e) >= p for _, e, k in terms):
                return False
            table = _classical_table(p, n, [(c, e) for c, e, _ in terms])
            if int((table != center).sum()) * eta.denominator > eta.numerator * p**n:
                return False
        return True

    return _checked(check)


def _check_max_list(code, radius: str, argmax_path: str):
    """The argmax center recounts to the printed maximum through ball_count."""

    def check(exit_code: int, stdout: str) -> bool:
        from rmlab import CodeParams, Word, ball_count

        (row,) = _csv_rows(stdout)
        with open(argmax_path, encoding="utf-8") as fh:
            word = Word.from_text(fh.read())
        recount = ball_count(CodeParams(*code), word, _frac(radius))
        return exit_code == 0 and recount == int(row["max_count"])

    return _checked(check)


def _check_min_distance(code):
    def check(exit_code: int, stdout: str) -> bool:
        from rmlab import delta

        return exit_code == 0 and _frac(stdout.strip()) == delta(code[0], code[2])

    return _checked(check)


def _check_tightness(p: int, e: int):
    def check(exit_code: int, stdout: str) -> bool:
        from rmlab import delta

        want = delta(p, e) * (1 - Fraction(1, p))
        rows = _csv_rows(stdout)
        return exit_code == 0 and bool(rows) and all(_frac(r["distance"]) == want for r in rows)

    return _checked(check)


def list_decode_ops(seed: int, root: str) -> list[Op]:
    from rmlab import random_field_word

    rng = random.Random(seed)
    ops: list[Op] = []

    def center_file(code, tag: str) -> str:
        p, n, _ = code
        word = random_field_word(p, n, rng)
        return _write(os.path.join(root, f"{tag}.word"), word.to_text())

    for code, radii in BALL_CODES:
        for radius in radii:
            for i in range(BALL_CENTERS):
                tag = f"ball-{code[0]}-{code[1]}-{code[2]}-{radius.replace('/', '_')}-{i:02d}"
                path = center_file(code, tag)
                base = ["list-size"] + _code_flags(code) + ["--radius", radius, "--center", f"file:{path}"]
                members = os.path.join(root, f"{tag}.members")
                ops.append(cli_op(tag + ".count", base, _check_list_size(code, radius, path, None)))
                ops.append(cli_op(tag + ".members", base + ["--members-out", members],
                                  _check_list_size(code, radius, path, members)))
    for i in range(WIDE_CENTERS):
        path = center_file(WIDE_CODE, f"wide-{i:02d}")
        argv = ["list-size"] + _code_flags(WIDE_CODE) + ["--radius", WIDE_RADIUS, "--center", f"file:{path}"]
        ops.append(cli_op(f"wide-{i:02d}", argv, _check_list_size(WIDE_CODE, WIDE_RADIUS, path, None)))
    for n in MAX_LIST_NS:
        code = (2, n, 1)
        argmax = os.path.join(root, f"argmax-{n}.word")
        argv = ["max-list"] + _code_flags(code) + [
            "--radius", MAX_LIST_RADIUS, "--samples", str(MAX_LIST_SAMPLES),
            "--seed", str(rng.randrange(10**6)), "--argmax-out", argmax,
        ]
        ops.append(cli_op(f"max-list-{n}", argv, _check_max_list(code, MAX_LIST_RADIUS, argmax)))
    p, n, d = CODEWORD_CODE
    for i in range(CODEWORD_CENTERS):
        index = rng.randrange(p ** len(_monomials(p, n, d)))
        argv = ["list-size"] + _code_flags(CODEWORD_CODE) + [
            "--radius", CODEWORD_RADIUS, "--center", f"codeword:{index}",
        ]
        ops.append(cli_op(f"codeword-{i:02d}", argv,
                          _check_list_size(CODEWORD_CODE, CODEWORD_RADIUS, None, None)))
    for code in MIN_DISTANCE_CODES:
        ops.append(cli_op(f"min-distance-{'-'.join(map(str, code))}", ["min-distance"] + _code_flags(code),
                          _check_min_distance(code)))
    tp, td, te, tn = TIGHTNESS
    argv = ["tightness", "--p", str(tp), "--d", str(td), "--e", str(te), "--n", str(tn)]
    ops.append(cli_op("tightness", argv, _check_tightness(tp, te)))
    return ops


# ---- regularity ---------------------------------------------------------------

WEAK_REG = (  # (p, n, d), eps, calls
    ((2, 4, 2), "1/4", 4),
    ((3, 2, 2), "1/5", 8),
    ((2, 3, 1), "2/5", 40),
)
RANK_D2 = ((2, 4), (3, 3))  # (p, n) for rank --d 2 --budget 2
RANK_D2_CALLS = 20
RANK_D3 = (2, 4)  # one --d 3 --budget 1 search over 2^15 candidates
FIT_SHAPES = ((2, 4), (3, 3), (5, 2))  # (p, n), max depth 3
FIT_CALLS = 45
ATOMS_SHAPES = ((2, 4), (3, 3))
ATOMS_CALLS = 24
ONE_SIDED = ((2, 3, 1), "2/5", 24)


def _check_weak_reg(code, eps_text: str, seed: int):
    """Acceptance criterion 2, re-checked exactly from the printed result:
    |chosen| <= floor(1/eps^2), every family member's agreement with the
    proxy is within eps of its agreement with g, and each step raises the
    energy by at least eps^2."""
    p, n, d = code
    eps = _frac(eps_text)

    def check(exit_code: int, stdout: str) -> bool:
        from rmlab import CodeParams, enumerate_code, random_field_word

        result = json.loads(stdout)
        chosen = result["chosen"]
        if exit_code != 0 or _frac(result["eps"]) != eps or len(chosen) > int(1 / (eps * eps)):
            return False
        energies = [_frac(step["energy"]) for step in result["trace"]]
        if any(after < before + eps * eps for before, after in zip(energies, energies[1:])):
            return False
        family = [w.values for _, w in enumerate_code(CodeParams(p, n, d))]
        g = random_field_word(p, n, random.Random(seed)).values
        gamma = {tuple(entry["atom"]): [_frac(w) for w in entry["dist"]] for entry in result["gamma"]}
        proxy = [gamma[tuple(family[i][x] for i in chosen)] for x in range(p**n)]
        size = p**n
        for f in family:
            via_proxy = sum(proxy[x][f[x]] for x in range(size)) / size
            via_g = Fraction(sum(1 for x in range(size) if g[x] == f[x]), size)
            if abs(via_proxy - via_g) > eps:
                return False
        return True

    return _checked(check)


def _product_of_affine(p: int, n: int, rng):
    """L1 * L2 for two random nonconstant affine forms: measurable with
    respect to two degree-1 polynomials, so its d = 2 rank is at most 2."""
    from rmlab import classical_from_coeffs, mul_classical

    def affine():
        while True:
            lin = [rng.randrange(p) for _ in range(n)]
            if any(lin):
                break
        coeffs = {tuple(1 if j == i else 0 for j in range(n)): c for i, c in enumerate(lin) if c}
        coeffs[(0,) * n] = rng.randrange(p)
        return classical_from_coeffs(p, n, {e: c for e, c in coeffs.items() if c})

    return mul_classical(affine(), affine())


def _random_quadratic(p: int, n: int, rng):
    """A nonconstant classical polynomial of degree <= 2."""
    from rmlab import classical_from_coeffs

    monos = [e for e in itertools.product(range(p), repeat=n) if 0 < sum(e) <= 2]
    while True:
        coeffs = {e: rng.randrange(p) for e in monos}
        coeffs = {e: c for e, c in coeffs.items() if c}
        if coeffs:
            return classical_from_coeffs(p, n, coeffs)


def _check_rank(poly_text: str, high: int):
    """The input is measurable with respect to ``high`` polynomials of
    degree < d by construction, so the rank is exact and at most ``high``;
    it is 0 exactly when the table is constant."""
    p, n, terms = _parse_poly_terms(poly_text)
    constant = len(set(_classical_table(p, n, [(c, e) for c, e, _ in terms]).tolist())) == 1

    def check(exit_code: int, stdout: str) -> bool:
        kind, _, value = stdout.strip().partition(" ")
        return exit_code == 0 and kind == "exact" and int(value) <= high and (int(value) == 0) == constant

    return _checked(check)


def _check_fit(expected_text: str):
    return _checked(lambda code, out: code == 0 and out == expected_text)


def _check_atoms(poly_texts: list[str]):
    """The printed norm, deviation and first worst atom, recounted from the
    definers' tables."""

    def check(exit_code: int, stdout: str) -> bool:
        from rmlab import NonclassicalPoly

        words = [NonclassicalPoly.from_text(t).to_word() for t in poly_texts]
        moduli = [w.modulus for w in words]
        size = words[0].length
        norm = 1
        for m in moduli:
            norm *= m
        counts: dict[tuple[int, ...], int] = {}
        for x in range(size):
            key = tuple(w.values[x] for w in words)
            counts[key] = counts.get(key, 0) + 1
        nominal = Fraction(1, norm)
        best, worst = Fraction(-1), ()
        for atom in itertools.product(*(range(m) for m in moduli)):
            dev = abs(Fraction(counts.get(atom, 0), size) - nominal)
            if dev > best:
                best, worst = dev, atom
        (row,) = _csv_rows(stdout)
        return (
            exit_code == 0
            and int(row["definers"]) == len(words)
            and int(row["norm"]) == norm
            and _frac(row["deviation"]) == best
            and row["worst_atom"] == "|".join(str(v) for v in worst)
        )

    return _checked(check)


def _one_sided(code, eps_text: str, seed: int) -> tuple[int, str]:
    from rmlab import CodeParams, enumerate_code, one_sided_regularize, random_field_word

    p, n, _ = code
    family = [w for _, w in enumerate_code(CodeParams(*code))]
    g = random_field_word(p, n, random.Random(seed))
    result = one_sided_regularize(g, family, _frac(eps_text))
    words = [list(result.composed_word(i).values) for i in range(len(family))]
    return 0, json.dumps({"chosen": list(result.chosen), "composed": words}) + "\n"


def _check_one_sided(code, eps_text: str, seed: int):
    """Acceptance criterion 3: Pr[Gamma_f(h) = f] >= Pr[g = f] - eps for
    every family member f."""
    eps = _frac(eps_text)

    def check(exit_code: int, stdout: str) -> bool:
        from rmlab import CodeParams, enumerate_code, random_field_word

        p, n, _ = code
        family = [w.values for _, w in enumerate_code(CodeParams(*code))]
        g = random_field_word(p, n, random.Random(seed)).values
        composed = json.loads(stdout)["composed"]
        size = p**n
        for f, gam in zip(family, composed):
            lhs = Fraction(sum(1 for x in range(size) if gam[x] == f[x]), size)
            rhs = Fraction(sum(1 for x in range(size) if g[x] == f[x]), size)
            if lhs < rhs - eps:
                return False
        return exit_code == 0 and len(composed) == len(family)

    return _checked(check)


def regularity_ops(seed: int, root: str) -> list[Op]:
    from rmlab import random_canonical_poly

    rng = random.Random(seed)
    ops: list[Op] = []
    for code, eps, calls in WEAK_REG:
        for i in range(calls):
            s = rng.randrange(10**6)
            argv = ["weak-reg"] + _code_flags(code) + ["--eps", eps, "--center", "random", "--seed", str(s)]
            ops.append(cli_op(f"weak-reg-{'-'.join(map(str, code))}-{i:02d}", argv, _check_weak_reg(code, eps, s)))
    for i in range(RANK_D2_CALLS):
        p, n = RANK_D2[i % len(RANK_D2)]
        text = _product_of_affine(p, n, rng).to_text()
        path = _write(os.path.join(root, f"rank2-{i:02d}.poly"), text)
        argv = ["rank", "--poly", path, "--d", "2", "--budget", "2"]
        ops.append(cli_op(f"rank2-{i:02d}", argv, _check_rank(text, 2)))
    text = _random_quadratic(*RANK_D3, rng).to_text()
    path = _write(os.path.join(root, "rank3.poly"), text)
    argv = ["rank", "--poly", path, "--d", "3", "--budget", "1"]
    ops.append(cli_op("rank3", argv, _check_rank(text, 1)))
    for i in range(FIT_CALLS):
        p, n = FIT_SHAPES[i % len(FIT_SHAPES)]
        poly = random_canonical_poly(p, n, rng.randint(0, 3), rng)
        path = _write(os.path.join(root, f"fit-{i:02d}.word"), poly.to_word().to_text())
        argv = ["canonical-fit", "--word", path, "--max-depth", "3"]
        ops.append(cli_op(f"fit-{i:02d}", argv, _check_fit(poly.to_text())))
    for i in range(ATOMS_CALLS):
        p, n = ATOMS_SHAPES[i % len(ATOMS_SHAPES)]
        texts = [random_canonical_poly(p, n, rng.randint(0, 1), rng).to_text() for _ in range(3)]
        argv = ["atoms"]
        for j, text in enumerate(texts):
            argv += ["--poly", _write(os.path.join(root, f"atoms-{i:02d}-{j}.poly"), text)]
        ops.append(cli_op(f"atoms-{i:02d}", argv, _check_atoms(texts)))
    code, eps, calls = ONE_SIDED
    for i in range(calls):
        s = rng.randrange(10**6)
        ops.append(Op(f"one-sided-{i:02d}", lambda c=code, e=eps, s=s: _one_sided(c, e, s),
                      _check_one_sided(code, eps, s)))
    return ops


# ---- registry -----------------------------------------------------------------


BUILDERS = {
    "claims": lambda seed, root: claims_ops(seed),
    "list_decode": list_decode_ops,
    "regularity": regularity_ops,
}


def build(workload: str, seed: int) -> list[Op]:
    """Write the workload's inputs for this seed and return its operations."""
    root = os.path.join(INPUT_ROOT, f"{workload}-{seed}")
    os.makedirs(root, exist_ok=True)
    return BUILDERS[workload](seed, root)
