"""rm-list-lab benchmark: time each workload end to end, or per layer.

    python3 perfbench/run.py --workload claims --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout; it imports ``rmlab`` from ``src/``
and writes its generated inputs and its bytecode cache under
``.perfbench/``.

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (median
over SETUP_SAMPLES fresh interpreters of importing ``rmlab`` and
``rmlab.cli`` plus generating the workload's inputs from the seed),
``wall_s`` (one full pass, tracing off) and ``peak_rss_mb`` (peak resident
memory of the process that ran the pass).  Every pass runs in a fresh
process, so no workload's imports or memory leak into another's.  Passes
repeat until ``--seconds`` of pass time is measured, at least once; the
reported values are medians over them.

With ``--trace 1`` it runs one untraced and one traced pass, each in a fresh
process, and reports the per-layer metrics of the traced one (see
tracer.py), the per-row times of the claims plan, the line counts of
``src/``, ``cli.import_s``, ``cli.stdout_bytes`` and ``trace.overhead``
(traced pass time over untraced pass time).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  An operation fails when its exit code or output
fails its check; at seed 0 each pass's stdout digest must also equal the
digest recorded from the code the benchmark was defined on.  The metric
names and units are the ones BENCHMARK.json lists.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import BUILDERS

SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # every run, all its child processes included, ends within this
SRC_FILES = (
    "__init__", "__main__", "cli", "degreecheck", "limits", "parallel", "polynomial",
    "regularity", "rmcode", "special", "torus", "verify", "words",
)
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
# Children keep their bytecode cache here, written whatever
# PYTHONDONTWRITEBYTECODE says, so that setup_s times imports from a warm
# cache, as a user's repeated runs do, in every checkout alike.
PYCACHE = os.path.join(".perfbench", "pycache")


class RunError(Exception):
    pass


def spawn(mode: str, args, deadline: float) -> dict:
    argv = [sys.executable, CHILD, mode, args.workload, str(args.seed)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = os.path.abspath(PYCACHE)
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{mode} process exceeded the {RUN_LIMIT_S} s run limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _lines(path: str) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


def line_counts() -> dict[str, float]:
    """Lines per file of src/rmlab (0 for a file since deleted), and of all
    of src/."""
    counts = {}
    for module in SRC_FILES:
        path = os.path.join("src", "rmlab", module + ".py")
        counts[f"{module.strip('_')}.loc"] = float(_lines(path) if os.path.exists(path) else 0)
    counts["src.loc"] = float(sum(
        _lines(os.path.join(root, name))
        for root, _, files in os.walk("src") for name in files if name.endswith(".py")
    ))
    return counts


def summarize(passes: list[dict], workload: str) -> tuple[bool, int, int]:
    failed = sum(len(p["failed"]) for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    ops_failed = failed / attempted
    for p in passes:
        for label in p["failed"]:
            print(f"failed: {label}", file=sys.stderr)
        if not p["digest_ok"]:
            print(f"stdout digest {p['digest']} differs from the one recorded at seed 0", file=sys.stderr)
    correct = failed == 0 and all(p["digest_ok"] for p in passes)
    print(f"{workload}: {attempted} operations, ops_failed {ops_failed:.4f}, digest {passes[0]['digest']}")
    return correct, attempted, failed


def measure(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        plain = spawn("pass", args, deadline)
        traced = spawn("traced", args, deadline)
        passes = [plain, traced]
        values = dict(traced["layers"])
        values.update(line_counts())
        values["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
        section = "per_layer"
    else:
        setups = [spawn("setup", args, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        passes = [spawn("pass", args, deadline)]
        while (sum(p["wall_s"] for p in passes) < args.seconds
               and time.monotonic() + 2 * passes[-1]["wall_s"] < deadline):
            passes.append(spawn("pass", args, deadline))
        setups.append(passes[0]["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        section = "end_to_end"
    correct, attempted, failed = summarize(passes, args.workload)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)[section]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RunError(f"no value for {', '.join(missing)}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "rmlab", "cli.py")):
        print("run from the root of an rm-list-lab checkout: src/rmlab not found", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
