"""One fresh benchmark process: set up a workload, and unless the mode is
``setup``, run one pass of it and check the outputs.

    python3 perfbench/child.py <setup|pass|traced> <workload> <seed>

Run from the root of a checkout.  Prints one JSON object.  Nothing but
``sys`` and ``time`` is imported before the timed import of ``rmlab``, so
that ``setup_s`` pays the whole import cost a user pays.
"""

import sys
import time


def main(mode: str, workload: str, seed: int) -> dict:
    start = time.perf_counter()
    import rmlab  # noqa: F401
    import rmlab.cli  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads

    start = time.perf_counter()
    ops = workloads.build(workload, seed)
    setup_s = import_s + time.perf_counter() - start
    if mode == "setup":
        return {"setup_s": setup_s}

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results, op_s = [], []
    start = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        try:
            results.append(op.call())
        except Exception:  # the operation fails its check; the pass goes on
            import traceback

            traceback.print_exc()
            results.append((None, ""))
        op_s.append(time.perf_counter() - t)
    wall_s = time.perf_counter() - start
    import resource

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    digest = workloads.digest([out for _, out in results])
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": [op.label for op, (code, text) in zip(ops, results) if not op.check(code, text)],
        "digest": digest,
        "digest_ok": seed != 0 or digest == workloads.SEED0_DIGESTS[workload],
    }
    if tracer:
        layers = tracer.metrics()
        layers["cli.import_s"] = import_s
        layers["cli.stdout_bytes"] = sum(len(text.encode()) for op, (_, text) in zip(ops, results) if op.cli)
        layers.update({f"{label}_s": 0.0 for label in workloads.claims_row_labels()})
        layers.update({f"{op.label}_s": s for op, s in zip(ops, op_s) if op.label.startswith("verify.")})
        out["layers"] = layers
    return out


if __name__ == "__main__":
    import os

    sys.path.insert(0, os.path.abspath("src"))
    result = main(sys.argv[1], sys.argv[2], int(sys.argv[3]))
    import json

    print(json.dumps(result))
