import json
import os
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from rmlab import Word, monomial_poly
from rmlab.cli import main

RMLAB = [sys.executable, "-m", "rmlab"]


def run_cli(*args, env=None):
    return subprocess.run(
        RMLAB + list(args), capture_output=True, text=True, env=env
    )


def test_min_distance_example():
    proc = run_cli("min-distance", "--p", "2", "--n", "4", "--d", "2")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1/4"


def test_usage_error_exit_2():
    proc = run_cli("min-distance", "--p", "2")
    assert proc.returncode == 2


def test_unknown_flag_rejected():
    proc = run_cli("min-distance", "--p", "2", "--n", "4", "--d", "2", "--bogus")
    assert proc.returncode == 2


def test_infeasible_exit_3():
    proc = run_cli(
        "--limits", "table=10,exhaustive=10", "min-distance", "--p", "2", "--n", "4", "--d", "2"
    )
    assert proc.returncode == 3
    assert "infeasible" in proc.stderr


def test_verify_pass_and_fail_exit_codes():
    ok = run_cli("verify", "--claim", "DELTA_PRODUCT", "--p", "3", "--dmax", "20")
    assert ok.returncode == 0
    payload = json.loads(ok.stdout)
    assert payload["status"] == "pass" and payload["casesChecked"] == 40
    bad = run_cli(
        "verify", "--claim", "THM1_DESK", "--p", "2", "--d", "1",
        "--eps", "1/16", "--samples", "50", "--seed", "0", "--ns", "3,4",
    )
    assert bad.returncode == 1
    assert json.loads(bad.stdout)["status"] == "fail"


def test_verify_infeasible_exit_3():
    proc = run_cli("verify", "--claim", "LUCAS", "--p", "2", "--r", "40", "--A", "1", "--k", "1")
    assert proc.returncode == 3


def test_list_size_csv_schema_and_determinism():
    args = (
        "list-size", "--p", "2", "--n", "3", "--d", "1",
        "--radius", "3/8", "--center", "random", "--samples", "10", "--seed", "7",
    )
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout  # byte-identical under identical argv
    lines = a.stdout.strip().splitlines()
    assert lines[0] == "# rm-list-lab v1 list-size"
    assert lines[1] == "p,n,d,radius,center_id,count"
    assert len(lines) == 12


def test_jobs_do_not_change_output():
    base = (
        "list-size", "--p", "2", "--n", "3", "--d", "1",
        "--radius", "7/16", "--center", "random", "--samples", "8", "--seed", "3",
    )
    one = run_cli("--jobs", "1", *base)
    eight = run_cli("--jobs", "8", *base)
    assert one.stdout == eight.stdout


def test_json_format():
    proc = run_cli(
        "--format", "json",
        "list-size", "--p", "2", "--n", "2", "--d", "1",
        "--radius", "1/4", "--center", "zero",
    )
    rows = json.loads(proc.stdout)
    assert rows[0]["center_id"] == "zero"
    assert rows[0]["radius"] == "1/4"


def test_decimal_radius_is_exact():
    a = run_cli(
        "list-size", "--p", "2", "--n", "3", "--d", "1",
        "--radius", "0.375", "--center", "zero",
    )
    b = run_cli(
        "list-size", "--p", "2", "--n", "3", "--d", "1",
        "--radius", "3/8", "--center", "zero",
    )
    assert a.stdout.replace("0.375", "3/8") == b.stdout


def test_list_size_members_out(tmp_path):
    out = tmp_path / "members.jsonl"
    proc = run_cli(
        "list-size", "--p", "2", "--n", "3", "--d", "1",
        "--radius", "3/8", "--center", "zero", "--members-out", str(out),
    )
    assert proc.returncode == 0
    payload = json.loads(out.read_text().strip())
    assert payload["eta"] == "3/8"
    assert payload["count"] == len(payload["members"])


def test_max_list_and_argmax_out(tmp_path):
    out = tmp_path / "argmax.txt"
    proc = run_cli(
        "max-list", "--p", "2", "--n", "3", "--d", "1",
        "--radius", "7/16", "--samples", "10", "--seed", "0",
        "--argmax-out", str(out),
    )
    assert proc.returncode == 0
    word = Word.from_text(out.read_text())
    assert word.length == 8


def test_tightness_rows():
    proc = run_cli("tightness", "--p", "3", "--d", "3", "--e", "2", "--n", "4")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "# rm-list-lab v1 tightness"
    assert len(lines) == 2 + 9
    assert all(line.endswith("2/9") for line in lines[2:])


def test_weak_reg_json_deterministic():
    args = ("weak-reg", "--p", "2", "--n", "3", "--d", "1", "--eps", "2/5", "--seed", "5")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.stdout == b.stdout
    payload = json.loads(a.stdout)
    assert "trace" in payload and "gamma" in payload


def test_rank_and_atoms_roundtrip(tmp_path):
    poly_path = tmp_path / "prod.poly"
    poly_path.write_text(monomial_poly(2, 2, (1, 1)).to_text())
    proc = run_cli("rank", "--poly", str(poly_path), "--d", "2", "--budget", "3")
    assert proc.stdout.strip() == "exact 2"
    proc = run_cli("atoms", "--poly", str(poly_path))
    lines = proc.stdout.strip().splitlines()
    assert lines[1] == "definers,norm,deviation,worst_atom"
    assert lines[2].startswith("1,2,1/4")


def test_zero_denominator_radius_exit_2():
    proc = run_cli(
        "list-size", "--p", "2", "--n", "3", "--d", "1", "--radius", "1/0", "--center", "zero"
    )
    assert proc.returncode == 2
    assert "zero denominator" in proc.stderr and "Traceback" not in proc.stderr


def test_zero_denominator_eps_exit_2():
    proc = run_cli("weak-reg", "--p", "2", "--n", "3", "--d", "1", "--eps", "1/0")
    assert proc.returncode == 2
    assert "zero denominator" in proc.stderr and "Traceback" not in proc.stderr


def test_codeword_center_out_of_range_exit_2():
    for index in ("128", "-1"):
        proc = run_cli(
            "list-size", "--p", "2", "--n", "3", "--d", "2", "--radius", "1/4",
            "--center", f"codeword:{index}",
        )
        assert proc.returncode == 2
        assert f"codeword index {index} out of range" in proc.stderr


def test_poly_term_without_exponents_exit_2(tmp_path):
    poly_path = tmp_path / "bad.poly"
    poly_path.write_text("p=2 n=2\nc=1 k=0\n")
    proc = run_cli("atoms", "--poly", str(poly_path))
    assert proc.returncode == 2
    assert "e=" in proc.stderr and "Traceback" not in proc.stderr


def test_poly_header_without_n_exit_2(tmp_path):
    poly_path = tmp_path / "bad.poly"
    poly_path.write_text("p=2\nc=1 e=1,1 k=0\n")
    proc = run_cli("rank", "--poly", str(poly_path), "--d", "2")
    assert proc.returncode == 2
    assert "n=" in proc.stderr and "Traceback" not in proc.stderr


def test_canonical_fit_roundtrip(tmp_path):
    poly = monomial_poly(2, 1, (1,), k=1)
    word_path = tmp_path / "word.txt"
    word_path.write_text(poly.to_word().to_text())
    proc = run_cli("canonical-fit", "--word", str(word_path), "--max-depth", "2")
    assert proc.stdout == poly.to_text()


@pytest.mark.parametrize("text, max_depth", [
    ("2 1 torus:1\n1 1\n", "4"),  # the constant 1/4 needs a shift
    ("2 1 torus:1\n0 3\n", "0"),  # depth 1 past --max-depth 0
], ids=["shifted-constant", "past-max-depth"])
def test_canonical_fit_not_a_polynomial_exit_2(tmp_path, text, max_depth):
    word_path = tmp_path / "word.txt"
    word_path.write_text(text)
    proc = run_cli("canonical-fit", "--word", str(word_path), "--max-depth", max_depth)
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr


@pytest.mark.parametrize("args, message", [
    (("list-size", "--p", "2", "--n", "3", "--d", "1", "--radius", "1/4", "--samples", "-2"),
     "no centers requested"),
    (("list-size", "--p", "2", "--n", "3", "--d", "1", "--radius", "1/4", "--samples", "0"),
     "no centers requested"),
    (("max-list", "--p", "2", "--n", "3", "--d", "1", "--radius", "1/4", "--samples", "-2",
      "--include-codeword-centers"), "samples must be >= 0"),
    (("rank", "--word", "WORD", "--d", "2", "--budget", "-1"), "budget must be >= 0"),
], ids=["list-size-negative", "list-size-zero", "max-list-negative", "rank-negative"])
def test_negative_counts_exit_2(tmp_path, args, message):
    word_path = tmp_path / "word.txt"
    word_path.write_text(monomial_poly(2, 2, (1, 1)).to_word().to_text())
    proc = run_cli(*(str(word_path) if a == "WORD" else a for a in args))
    assert proc.returncode == 2
    assert proc.stdout == "" and message in proc.stderr


@pytest.mark.parametrize("center", ["zero", "codeword:0"])
def test_list_size_negative_samples_exit_2_for_every_center(capsys, center):
    argv = ["list-size", "--p", "2", "--n", "3", "--d", "1", "--radius", "1/4",
            "--center", center, "--samples", "-5"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "samples must be >= 0" in out.err


def test_tightness_needs_e_below_d_exit_2():
    proc = run_cli("tightness", "--p", "3", "--d", "2", "--e", "2", "--n", "4")
    assert proc.returncode == 2
    assert proc.stdout == "" and "need 0 <= e < d" in proc.stderr


def test_verify_all_subset_with_config(tmp_path):
    config = tmp_path / "runs.cfg"
    config.write_text(
        "claims=APK,DELTA_PRODUCT,JOHNSON_GAP\n"
        "APK.amax=10\nAPK.kmax=5\nAPK.pmax=7\n"
        "DELTA_PRODUCT.dmax=10\n"
    )
    csv_path = tmp_path / "summary.csv"
    one = run_cli("--jobs", "1", "verify-all", "--config", str(config), "--csv", str(csv_path))
    eight = run_cli("--jobs", "8", "verify-all", "--config", str(config), "--csv", str(csv_path))
    assert one.returncode == 0
    assert one.stdout == eight.stdout
    assert csv_path.read_text().startswith("# rm-list-lab v1 verify-all")
    for line in one.stdout.strip().splitlines():
        assert json.loads(line)["status"] == "pass"


def test_env_limits_respected():
    env = dict(os.environ)
    env["RMLAB_LIMITS"] = "table=10,exhaustive=10"
    proc = run_cli("min-distance", "--p", "2", "--n", "4", "--d", "2", env=env)
    assert proc.returncode == 3


LIST_SIZE_T = ("list-size", "--p", "2", "--n", "3", "--d", "1", "--radius", "1/2")


@pytest.mark.parametrize("word, members", [
    (Word.torus_word(2, 3, 1, [0, 1, 1, 0, 1, 0, 0, 1]), False),
    (Word.torus_word(2, 3, 1, [0, 1, 1, 0, 1, 0, 0, 1]), True),
    (Word.field_word(3, 2, range(9)), False),
], ids=["torus", "torus-members-out", "other-prime"])
def test_list_size_center_not_on_the_code_exit_2(tmp_path, word, members):
    center = tmp_path / "T.txt"
    center.write_text(word.to_text())
    out = tmp_path / "members.jsonl"
    extra = ("--members-out", str(out)) if members else ()
    proc = run_cli(*LIST_SIZE_T, "--center", f"file:{center}", *extra)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "center must be a field word on the code's domain" in proc.stderr
    assert not out.exists()


def test_list_size_tiny_decimal_radius():
    # eta's denominator 10^23 leaves int64; the exact comparison must not
    proc = run_cli(*LIST_SIZE_T[:-2], "--radius", "0.00000000000000000000001", "--center", "zero")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "2,3,1,1/100000000000000000000000,zero,1"


MEMBERS_SHA256 = "ec3e630e2cbc8f0def142cd1ede7c488a9bacbbecd217b5e0f82f7b8b8d5d25b"


def test_codeword_center_scan_capped_by_pairs(capsys):
    # 59,052 centers x 59,049 codewords: refused before any block is built
    argv = ["max-list", "--p=3", "--n=3", "--d=2", "--radius=0", "--samples=3", "--include-codeword-centers"]
    start = time.perf_counter()
    with mock.patch.dict(os.environ, {"RMLAB_LIMITS": "table=4096,exhaustive=100000"}):
        assert main(argv) == 3
    assert time.perf_counter() - start < 1
    out = capsys.readouterr()
    assert out.out == "" and "codeword-center ball scan" in out.err


@pytest.mark.parametrize("radius", ["1/2/3", "a/4", "1/"])
def test_malformed_fraction_named_exit_2(capsys, radius):
    assert main([*LIST_SIZE_T[:-2], f"--radius={radius}", "--center", "zero"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and f"error: bad fraction {radius!r}" in out.err


def test_parser_built_once_without_carrying_values_over(tmp_path, capsys):
    from rmlab import cli

    polys = [tmp_path / "a.poly", tmp_path / "b.poly"]
    polys[0].write_text(monomial_poly(2, 2, (1, 1)).to_text())
    polys[1].write_text(monomial_poly(2, 2, (1, 0)).to_text())
    assert main(["atoms", "--poly", str(polys[0]), "--poly", str(polys[1])]) == 0
    assert capsys.readouterr().out.splitlines()[2] == "2,4,1/4,0|0"
    assert main(["atoms", "--poly", str(polys[0])]) == 0  # a fresh --poly list, not a third entry
    assert capsys.readouterr().out.splitlines()[2] == "1,2,1/4,0"
    members = tmp_path / "m.jsonl"
    assert main(["--format", "json", *LIST_SIZE_T, "--center", "zero", "--members-out", str(members)]) == 0
    assert json.loads(capsys.readouterr().out)[0]["count"] == 15
    members.unlink()
    assert main([*LIST_SIZE_T, "--center", "zero"]) == 0  # csv again, and no members file
    assert capsys.readouterr().out.splitlines()[2] == "2,3,1,1/2,zero,15"
    assert not members.exists()
    assert cli.build_parser() is cli.build_parser()


def test_list_size_members_out_pinned_under_jobs(tmp_path):
    import hashlib

    runs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"members-{jobs}.jsonl"
        proc = run_cli(
            "--jobs", jobs, "list-size", "--p", "3", "--n", "2", "--d", "2", "--radius", "1/3",
            "--samples", "6", "--seed", "3", "--members-out", str(out),
        )
        assert proc.returncode == 0
        runs.append((proc.stdout, out.read_bytes()))
    assert runs[0] == runs[1]
    assert hashlib.sha256(runs[0][1]).hexdigest() == MEMBERS_SHA256


def _count_ball_searches(monkeypatch):
    from rmlab import rmcode

    searches = []
    kernel = rmcode._ball_hits

    def counted(*args, **kwargs):
        searches.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(rmcode, "_ball_hits", counted)
    return searches


def test_list_size_members_out_scans_each_center_once(tmp_path, monkeypatch, capsys):
    searches = _count_ball_searches(monkeypatch)
    argv = [*LIST_SIZE_T, "--samples", "5", "--members-out", str(tmp_path / "m.jsonl")]
    assert main(argv) == 0
    assert len(searches) == 5
    rows = capsys.readouterr().out.splitlines()[2:]
    lines = (tmp_path / "m.jsonl").read_text().splitlines()
    assert [r.split(",")[-1] for r in rows] == [str(json.loads(l)["count"]) for l in lines]


def test_thm1_unique_decoding_one_pass_per_n(monkeypatch):
    from rmlab.verify import run_check

    searches = _count_ball_searches(monkeypatch)
    params = {"p": 2, "d": 1, "eps": "1/16", "samples": 3, "seed": 0, "ns": [3, 4, 5]}
    run_check("THM1_DESK", dict(params, check_unique_decoding=False))
    sampled_only = len(searches)
    report = run_check("THM1_DESK", params)
    assert len(searches) - 2 * sampled_only == 3
    assert report.cases_checked == 3 * 3 + 16 + 32 + 64


@pytest.mark.parametrize("argv", [
    [*LIST_SIZE_T, "--center", "zero", "--members-out", "OUT"],
    ["max-list", "--p", "2", "--n", "3", "--d", "1", "--radius", "1/2", "--samples", "2",
     "--argmax-out", "OUT"],
    ["tightness", "--p", "3", "--d", "3", "--e", "2", "--n", "4", "--members-out", "OUT"],
    ["verify-all", "--config", "CONFIG", "--csv", "OUT"],
], ids=["list-size", "max-list", "tightness", "verify-all"])
def test_unwritable_output_path_exit_2_with_empty_stdout(tmp_path, capsys, argv):
    config = tmp_path / "runs.cfg"
    config.write_text("claims=DELTA_PRODUCT\n")
    paths = {"OUT": str(tmp_path / "missing" / "x"), "CONFIG": str(config)}
    assert main([paths.get(a, a) for a in argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "error:" in out.err


@pytest.mark.parametrize("argv", [
    ["--claim", "DELTA_PRODUCT", "--p", "1"],
    ["--claim", "DELTA_PRODUCT", "--p", "0"],
    ["--claim", "DELTA_PRODUCT", "--p", "-3"],
    ["--claim", "HTILDE_UNIFORM", "--A", "0"],
    ["--claim", "HTILDE_UNIFORM", "--k", "-1"],
    ["--claim", "HTILDE_UNIFORM", "--rs", "0,1"],
], ids=["delta-p1", "delta-p0", "delta-p-3", "htilde-A0", "htilde-k-1", "htilde-r0"])
def test_out_of_domain_claim_parameters_exit_2(capsys, argv):
    assert main(["verify", *argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "error:" in out.err


# --- argv fuzz: every subcommand but the claim runners exits 0, 2 or 3 ---


def _pool(valid, invalid):
    """Strings from both lists, each list drawn half of the time."""
    return st.sampled_from(valid) | st.sampled_from(invalid)


def _opt(flag, values):
    # --flag=value, so that argparse reads a value such as -1/3 as a value
    return values.map(f"--{flag}={{}}".format)


def _argv(*parts):
    return st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts)).map(list)


# primes and non-primes in -1..6, n in -1..3, d in -1..4; "@" is the fixture directory
PRIMES = _pool(["2", "3", "5"], ["-1", "0", "1", "4", "6"])
NS, DS = _pool(["1", "2", "3"], ["-1", "0"]), _pool(["0", "1", "2", "3", "4"], ["-1"])
COUNTS = _pool(["1", "3"], ["-1", "0"])
FRACTIONS = _pool(["1/2", "0.375", "0"], ["-1/3", "1/0", "abc", "inf", "1/2/3"])
CENTERS = _pool(["zero", "random", "codeword:1", "file:@field.word"],
                ["codeword:-1", "codeword:x", "file:@torus.word", "file:@missing.word"])
WORDS = _pool(["@torus.word", "@field.word"], ["@missing.word"])
POLYS = _pool(["@x.poly", "@deep.poly"], ["@missing.poly"])
CODE = (_opt("p", PRIMES), _opt("n", NS), _opt("d", DS))
FILES = {
    "field.word": Word.field_word(2, 3, [0, 1, 1, 0, 1, 0, 0, 1]).to_text(),
    "torus.word": Word.torus_word(2, 3, 1, [0, 1, 2, 3, 3, 2, 1, 0]).to_text(),
    "x.poly": monomial_poly(2, 3, (1, 1, 0)).to_text(),
    "deep.poly": monomial_poly(3, 2, (1, 0), k=1).to_text(),
}
COMMANDS = st.one_of(
    _argv("min-distance", *CODE),
    _argv("list-size", *CODE, _opt("radius", FRACTIONS), _opt("center", CENTERS), _opt("samples", COUNTS)),
    _argv("max-list", *CODE, _opt("radius", FRACTIONS), _opt("samples", COUNTS),
          st.sampled_from(["--seed=1", "--include-codeword-centers"])),
    _argv("tightness", _opt("p", PRIMES), _opt("d", DS), _opt("e", DS), _opt("n", NS)),
    _argv("weak-reg", *CODE, _opt("eps", FRACTIONS), _opt("center", CENTERS)),
    _argv("rank", _opt("word", WORDS) | _opt("poly", POLYS), _opt("d", DS), _opt("budget", COUNTS)),
    _argv("atoms", _opt("poly", POLYS)),
    _argv("atoms", _opt("poly", POLYS), _opt("poly", POLYS)),
    _argv("johnson", _opt("p", PRIMES), _opt("d", DS)),
    _argv("canonical-fit", _opt("word", WORDS), _opt("max-depth", DS)),
)
OPTIONS = st.sampled_from([[], ["--format=json"]]) | _argv(_opt("limits", st.sampled_from(
    ["table=abc", "bogus=1", "table", "exhaustive=-1", "table=4096,exhaustive=", ",,"])))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (root / name).write_text(text)
    return root


@settings(derandomize=True, max_examples=200, deadline=None)
@given(options=OPTIONS, command=COMMANDS)
# 5^15 codeword centers: the cap must refuse them before any array is sized by them
@example(options=[], command=["max-list", "--p=5", "--n=2", "--d=4", "--radius=1/2", "--include-codeword-centers"])
def test_argv_fuzz_exits_0_2_or_3(fuzz_dir, options, command):
    argv = [a.replace("@", f"{fuzz_dir}/") for a in options + command]
    with mock.patch.dict(os.environ, {"RMLAB_LIMITS": "table=4096,exhaustive=100000"}):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 2, 3), argv
