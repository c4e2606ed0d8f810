"""Command-line interface: experiment configuration, seeding, parallelism
control, and CSV/JSON emission for the library operations.

Data goes to standard output; human-readable progress goes to standard
error.  Every number the library computes exactly is printed as an exact
rational ``num/den``; floating point appears only in Johnson-radius values
(9 decimal digits).  Output is byte-identical for identical (argv, config)
regardless of --jobs; wall-clock timings therefore never reach stdout.

Exit codes: 0 success/pass, 1 claim failure, 2 usage error, 3 infeasible.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import random
import sys
from fractions import Fraction

import numpy as np

from . import verify as verify_mod
from .limits import FeasibilityError, FeasibilityLimits, limits_from_env, parse_limits
from .parallel import ordered_map
from .polynomial import NonclassicalPoly, canonical_fit
from .rmcode import (
    CodeParams,
    codeword,
    codeword_blocks,
    delta,
    johnson_radius,
    list_in_ball,
    min_distance_bruteforce,
    sampled_max_list_size,
    tightness_family,
    tightness_weights,
)
from .regularity import (
    Factor,
    SimplexFunction,
    atom_uniformity,
    rank_bruteforce,
    weak_regularize,
)
from .torus import frac_str, parse_fraction
from .words import Word, iota_word, random_field_word

CSV_VERSION = "rm-list-lab v1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


def _emit_rows(command: str, columns: list[str], rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(rows, sort_keys=True))
        return
    print(f"# {CSV_VERSION} {command}")
    print(",".join(columns))
    for row in rows:
        print(",".join(str(row[c]) for c in columns))


def _open_out(path: str | None):
    """The output file, opened for writing before anything reaches stdout so
    that an unwritable path fails with empty stdout; a no-op when unset."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext()


def _load_word(path: str) -> Word:
    with open(path, "r", encoding="utf-8") as fh:
        return Word.from_text(fh.read())


def _load_poly(path: str) -> NonclassicalPoly:
    with open(path, "r", encoding="utf-8") as fh:
        return NonclassicalPoly.from_text(fh.read())


def _resolve_center(spec: str, params: CodeParams, limits: FeasibilityLimits) -> tuple[str, Word]:
    if spec == "zero":
        return "zero", Word.zeros(params.p, params.n)
    if spec.startswith("codeword:"):
        target = int(spec.split(":", 1)[1])
        return f"codeword:{target}", codeword(params, target, limits)
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        return f"file:{path}", _load_word(path)
    raise ValueError(f"unknown center spec {spec!r}")


# ---- subcommand implementations -------------------------------------------


def cmd_min_distance(args, limits) -> int:
    params = CodeParams(args.p, args.n, args.d)
    print(frac_str(min_distance_bruteforce(params, limits)))
    return EXIT_PASS


def cmd_list_size(args, limits) -> int:
    params = CodeParams(args.p, args.n, args.d)
    eta = parse_fraction(args.radius)
    if args.center == "random":
        if args.samples < 1:
            raise ValueError("no centers requested")
        rng = random.Random(args.seed)
        centers = [
            (f"sample:{i}", random_field_word(params.p, params.n, rng, limits)) for i in range(args.samples)
        ]
    else:
        if args.samples < 0:
            raise ValueError("samples must be >= 0")
        centers = [_resolve_center(args.center, params, limits)]
    search = functools.partial(list_in_ball, params, eta=eta, limits=limits)
    results = ordered_map(search, [center for _, center in centers], args.jobs)
    rows = [
        {
            "p": params.p,
            "n": params.n,
            "d": params.d,
            "radius": frac_str(eta),
            "center_id": label,
            "count": result.count,
        }
        for (label, _), result in zip(centers, results)
    ]
    with _open_out(args.members_out) as fh:
        _emit_rows("list-size", ["p", "n", "d", "radius", "center_id", "count"], rows, args.format)
        if fh:
            fh.writelines(result.to_json() + "\n" for result in results)
    return EXIT_PASS


def cmd_max_list(args, limits) -> int:
    params = CodeParams(args.p, args.n, args.d)
    eta = parse_fraction(args.radius)
    result = sampled_max_list_size(
        params,
        eta,
        args.samples,
        args.seed,
        include_codeword_centers=args.include_codeword_centers,
        limits=limits,
    )
    rows = [
        {
            "p": params.p,
            "n": params.n,
            "d": params.d,
            "radius": frac_str(eta),
            "samples": args.samples,
            "seed": args.seed,
            "max_count": result.count,
            "argmax_center": result.label,
        }
    ]
    with _open_out(args.argmax_out) as fh:
        _emit_rows(
            "max-list",
            ["p", "n", "d", "radius", "samples", "seed", "max_count", "argmax_center"],
            rows,
            args.format,
        )
        if fh:
            fh.write(result.center.to_text())
    return EXIT_PASS


def cmd_tightness(args, limits) -> int:
    weights = tightness_weights(args.p, args.d, args.e, args.n, limits)
    rows = [
        {"p": args.p, "d": args.d, "e": args.e, "n": args.n, "member_id": i,
         "distance": frac_str(Fraction(int(nonzero), args.p**args.n))}
        for i, nonzero in enumerate(weights)
    ]
    with _open_out(args.members_out) as fh:
        _emit_rows(
            "tightness", ["p", "d", "e", "n", "member_id", "distance"], rows, args.format
        )
        if fh:
            members = tightness_family(args.p, args.d, args.e, args.n, limits)
            fh.writelines(poly.to_text() + "\n" for poly in members)
    return EXIT_PASS


def cmd_weak_reg(args, limits) -> int:
    params = CodeParams(args.p, args.n, args.d)
    eps = parse_fraction(args.eps)
    family = np.concatenate([tables for _, _, tables in codeword_blocks(params, limits)])
    if args.center == "random":
        rng = random.Random(args.seed)
        g = random_field_word(params.p, params.n, rng, limits)
    else:
        _, g = _resolve_center(args.center, params, limits)
    result = weak_regularize(SimplexFunction.from_field_word(g), family, eps)
    print(result.to_json())
    return EXIT_PASS


def cmd_rank(args, limits) -> int:
    if args.word:
        word = _load_word(args.word)
        if word.kind == "field":
            word = iota_word(word)
    else:
        word = _load_poly(args.poly).to_word(limits)
    result = rank_bruteforce(word, args.d, args.budget, limits)
    if result.kind == "exact":
        print(f"exact {result.value}")
    elif result.kind == "infinite":
        print("infinite")
    else:
        print(f"lower_bound {result.value}")
    return EXIT_PASS


def cmd_atoms(args, limits) -> int:
    polys = [_load_poly(path) for path in args.poly]
    factor = Factor.from_polys(polys, limits)
    deviation, worst = atom_uniformity(factor, limits)
    rows = [
        {
            "definers": len(polys),
            "norm": factor.norm,
            "deviation": frac_str(deviation),
            "worst_atom": "|".join(str(v) for v in worst),
        }
    ]
    _emit_rows("atoms", ["definers", "norm", "deviation", "worst_atom"], rows, args.format)
    return EXIT_PASS


_VERIFY_FLAGS = {
    "p": int, "dmax": int, "n1max": int, "n2max": int, "r": int, "A": int,
    "k": int, "count": int, "seed": int, "trials": int, "d": int, "e": int,
    "n": int, "samples": int, "amax": int, "kmax": int, "pmax": int,
    "nmax": int, "depthmax": int, "n1": int, "rlimit": int,
    "exhaustive_n": int, "eps": str, "threshold": str, "min_gap": str,
}


def _default_params(claim: str) -> dict:
    for name, params in verify_mod.DEFAULT_RUNS:
        if name == claim:
            return dict(params)
    return {}


def _report_exit(reports) -> int:
    if all(r.passed for r in reports):
        return EXIT_PASS
    if any(r.status == verify_mod.FAIL for r in reports):
        return EXIT_FAIL
    return EXIT_INFEASIBLE


def cmd_verify(args, limits) -> int:
    params = _default_params(args.claim)
    for name, cast in _VERIFY_FLAGS.items():
        value = getattr(args, name, None)
        if value is not None:
            params[name] = cast(value)
    if args.ns:
        params["ns"] = [int(v) for v in args.ns.split(",")]
    if args.rs:
        params["rs"] = [int(v) for v in args.rs.split(",")]
    if args.ds:
        params["ds"] = [int(v) for v in args.ds.split(",")]
    report = verify_mod.run_check(args.claim, params, limits)
    print(report.to_json())
    print(
        f"{report.claim}: {report.status} ({report.cases_checked} cases, "
        f"{report.elapsed_ms:.0f} ms)",
        file=sys.stderr,
    )
    return _report_exit([report])


def _run_entry(task):
    claim, params, limits = task
    return verify_mod.run_check(claim, params, limits)


def cmd_verify_all(args, limits) -> int:
    config = None
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = verify_mod.parse_run_config(fh.read())
    runs = verify_mod.planned_runs(config)
    reports = ordered_map(
        _run_entry, [(claim, params, limits) for claim, params in runs], args.jobs
    )
    with _open_out(args.csv) as fh:
        for report in reports:
            print(report.to_json())
            print(
                f"{report.claim}: {report.status} ({report.cases_checked} cases, "
                f"{report.elapsed_ms:.0f} ms)",
                file=sys.stderr,
            )
        if fh:
            fh.write(f"# {CSV_VERSION} verify-all\n")
            fh.write(verify_mod.reports_to_csv(reports))
    return _report_exit(reports)


def cmd_johnson(args, limits) -> int:
    dist = delta(args.p, args.d)
    print(f"{frac_str(dist)} {johnson_radius(args.p, dist):.9f}")
    return EXIT_PASS


def cmd_can_fit(args, limits) -> int:
    word = _load_word(args.word)
    poly = canonical_fit(word, args.max_depth, limits=limits)
    sys.stdout.write(poly.to_text())
    return EXIT_PASS


# ---- argument parsing -------------------------------------------------------


@functools.cache  # one tree per process: parse_args writes only to its own namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmlab",
        description="Exhaustive desk-scale experiments for Reed-Muller list decoding",
    )
    parser.add_argument("--limits", help="cap overrides, e.g. table=100000,exhaustive=500000")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (output is identical for any value)")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    def code_flags(sp):
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--d", type=int, required=True)

    sp = sub.add_parser("min-distance", help="exact minimum distance by brute force")
    code_flags(sp)
    sp.set_defaults(func=cmd_min_distance)

    sp = sub.add_parser("list-size", help="codewords within a radius of one or more centers")
    code_flags(sp)
    sp.add_argument("--radius", required=True)
    sp.add_argument("--center", default="random", help="random | zero | codeword:<i> | file:<path>")
    sp.add_argument("--samples", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--members-out", help="write ListResult JSON lines here")
    sp.set_defaults(func=cmd_list_size)

    sp = sub.add_parser("max-list", help="sampled maximum list size")
    code_flags(sp)
    sp.add_argument("--radius", required=True)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--include-codeword-centers", action="store_true")
    sp.add_argument("--argmax-out", help="write the argmax word here")
    sp.set_defaults(func=cmd_max_list)

    sp = sub.add_parser("tightness", help="the explicit large-list family")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--members-out", help="write member polynomials here")
    sp.set_defaults(func=cmd_tightness)

    sp = sub.add_parser("weak-reg", help="weak regularity decomposition against all degree <= d words")
    code_flags(sp)
    sp.add_argument("--eps", required=True)
    sp.add_argument("--center", default="random")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_weak_reg)

    sp = sub.add_parser("rank", help="exhaustive rank of a table")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help="word file")
    group.add_argument("--poly", help="polynomial file")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--budget", type=int, default=2)
    sp.set_defaults(func=cmd_rank)

    sp = sub.add_parser("atoms", help="atom uniformity of a polynomial factor")
    sp.add_argument("--poly", action="append", required=True, help="repeatable")
    sp.set_defaults(func=cmd_atoms)

    sp = sub.add_parser("verify", help="run one claim checker")
    sp.add_argument("--claim", required=True, choices=sorted(verify_mod.CHECKERS))
    for name, cast in _VERIFY_FLAGS.items():
        sp.add_argument(f"--{name.replace('_', '-')}", dest=name, type=str)
    sp.add_argument("--ns", help="comma-separated n values")
    sp.add_argument("--rs", help="comma-separated r values")
    sp.add_argument("--ds", help="comma-separated d values")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("verify-all", help="run the configured claim suite")
    sp.add_argument("--config", help="key=value config file")
    sp.add_argument("--csv", help="write the CSV summary here")
    sp.set_defaults(func=cmd_verify_all)

    sp = sub.add_parser("johnson", help="minimum distance and Johnson radius")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.set_defaults(func=cmd_johnson)

    sp = sub.add_parser("canonical-fit", help="fit a torus word to canonical form")
    sp.add_argument("--word", required=True)
    sp.add_argument("--max-depth", type=int, default=4)
    sp.set_defaults(func=cmd_can_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    limits = limits_from_env()
    if args.limits:
        try:
            limits = parse_limits(args.limits, limits)
        except ValueError as exc:
            parser.error(str(exc))
    try:
        return args.func(args, limits)
    except FeasibilityError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
