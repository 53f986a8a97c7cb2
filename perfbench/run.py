"""Benchmark entry point for tubecat.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog|pointed-scaling|cli \
        [--seed N] [--seconds S] [--trace 0|1]

Runs one workload for about S seconds, set-up included (default:
``run_seconds`` of BENCHMARK.json), from a single client process, checks
every output against ``oracle.py``, and prints the run facts, the failed
operations and the metrics.  Times are in reference seconds: CPU seconds
scaled by a reference task timed alongside the work (``harness.Speed``).
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1``
they are its per-layer ones, taken from spans around every call the
benchmark makes into tubecat (a layer a workload never calls reads 0).
The full record, spans included, is written to
``.perfbench_out/<workload>-seed<N>-trace<T>.json``.

Exits 2 without a result when the checkout has no ``src/tubecat``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _metrics(declared: list, values: dict) -> dict:
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared}


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=declared["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tubecat" / "__init__.py").is_file():
        print(f"no tubecat sources under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("TUBECAT_CATALOG_DIR", None)
    # One CPU for the run and every child it starts, so that the speed
    # samples taken here see the CPU the work runs on.
    usable = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {usable[0]})
    # One BLAS thread, here and in every child: the matrices are small
    # (dim <= 49), and on a 2-core machine a second BLAS thread made the
    # Z/7 tube build both slower and less steady.  Set before numpy loads.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    from harness import Ledger, Speed, Tracer, run_facts
    from workloads import IN_CHILDREN, WORKLOADS, Context, is_refusal

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.active = bool(args.trace)
    speed = Speed(children=args.workload in IN_CHILDREN)
    ledger = Ledger(args.workload, tracer, is_refusal, speed)
    ctx = Context(root=ROOT, seed=args.seed, deadline=perf_counter() + args.seconds,
                  tracer=tracer, ledger=ledger, speed=speed)
    end_to_end = WORKLOADS[args.workload](ctx)

    facts = run_facts(ROOT, args.workload, args.seed, usable)
    failed_ratio = ledger.failed_ratio(ctx.fixed_passes)
    end_to_end["ok_ratio"] = 1.0 - failed_ratio
    if args.trace:
        ctx.layers["failed_ratio"] = failed_ratio
        ctx.layers["runtime.blas_threads"] = float(facts["blas_threads"])
        metrics = _metrics(declared["per_layer"], ctx.layers)
    else:
        metrics = _metrics(declared["end_to_end"], end_to_end)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "facts": facts, "attempted": ledger.attempted,
        "failed_ratio": failed_ratio, "failures": ledger.failures, "pass_seconds": ctx.passes,
        "speed": {"factor": speed.factor(), "samples": speed.samples},
        "metrics": metrics, "spans": tracer.dump()}, indent=1))

    print("facts " + json.dumps(facts))
    for f in ledger.summary():
        kind = "wrong" if f["wrong"] else "failed"
        print(f"{kind} x{f['count']}: {f['input']} {f['stage']} {f['error']}: "
              f"{f['detail']}")
    print(f"failed_ratio {failed_ratio:.6g} over the first {ctx.fixed_passes} passes "
          f"and the phases around them; {ledger.failed} of {ledger.attempted} "
          f"operations failed in the whole run, {ledger.wrong} of them wrong")
    for kind in ("cpu", "plain"):
        times = sorted(ctx.passes[kind])
        if len(times) >= 2:
            q1, q2, q3 = statistics.quantiles(times, n=4)
            print(f"pass times, {kind}: n={len(times)} min {times[0]:.4g} quartiles "
                  f"{q1:.4g} {q2:.4g} {q3:.4g} max {times[-1]:.4g} s")
    print(f"speed: {len(speed.samples)} samples, CPU seconds x {speed.factor():.4g} "
          f"= reference seconds")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"record {record.relative_to(ROOT)}")
    print(json.dumps({"correct": ledger.wrong == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
