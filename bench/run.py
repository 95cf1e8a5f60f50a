"""Benchmark of the tropmono command line on three exact-arithmetic workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports tropmono from ``src/`` next
to this directory.  One process, one thread, one closed-loop client: each
op is one call to ``tropmono.cli.run(argv)`` and starts when the previous
one has returned.  Every answer is checked.

With ``--trace 0`` the timed phase runs whole passes over the workload's
op mix, starting another pass only while the elapsed time plus the last
pass's length stays within ``--seconds``, and reports the end-to-end
metrics, scaled by the host slowdown that the reference kernels
(``reference.py``) measure in the same run.  With ``--trace 1`` it runs one pass untraced and one pass under
the outside-in tracer (``tracing.py``) and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of a traced
run and the full result with its context go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

FIRST_SET_UPS = 3   # set-ups before the first pass; one more before each later pass
MIN_PASSES = 2      # so that every op has at least two timed executions
REFERENCE_EVERY = 8  # ops between two samples of the host-speed reference

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "checks_per_s": "1/s", "peak_rss_mib": "MiB"}


def _fresh_import():
    """Import tropmono and the workload builders as a new process would."""
    for name in list(sys.modules):
        if name == "tropmono" or name.startswith("tropmono.") \
                or name in ("fixtures", "workloads"):
            del sys.modules[name]
    importlib.import_module("tropmono.cli")
    return importlib.import_module("workloads")


def set_up(workload: str, seed: int, workdir: str):
    """Import, build fixtures, write their JSON and generate presentations;
    returns (seconds, ops, workloads module)."""
    shutil.rmtree(workdir, ignore_errors=True)
    t0 = time.perf_counter()
    wl = _fresh_import()
    ops = wl.build(workload, seed, workdir)
    return time.perf_counter() - t0, ops, wl


def tropmono_modules() -> dict:
    return {name.split(".", 1)[1]: module for name, module in sys.modules.items()
            if name.startswith("tropmono.")}


def run_pass(ops, wl, digests: dict, tracer=None, reference=None) -> dict:
    """Run every op once; check each answer and the report's SHA-256
    against the first repetition of the same op in this run.  With a
    reference, time one sample of its kernels after every REFERENCE_EVERY
    ops."""
    cli = sys.modules["tropmono.cli"]
    latencies, checks, errors = [], 0, []
    for index, op in enumerate(ops):
        if reference is not None and index % REFERENCE_EVERY == 0:
            reference.sample()
        if tracer is not None:
            tracer.op_id = index
        t0 = time.perf_counter_ns()
        try:
            code, text = cli.run(list(op.argv))
        except Exception as exc:  # an op that raises counts as failed
            latencies.append(time.perf_counter_ns() - t0)
            errors.append((op, f"raised {exc!r}"))
            continue
        latencies.append(time.perf_counter_ns() - t0)
        try:
            error, count = wl.verify(op, code, text)
        except (ValueError, KeyError, TypeError) as exc:
            error, count = f"unreadable report: {exc!r}", 0
        checks += count
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digests.setdefault(op.argv, digest) != digest:
            error = error or "report differs from its first repetition"
        if error:
            errors.append((op, error))
    return {"latencies": latencies, "checks": checks, "errors": errors}


def _quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "tropmono", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def timed_phase(workload: str, seed: int, workdir: str, seconds: float,
                reference):
    """Set up, then run whole passes over the op mix, with a fresh set-up
    before each pass.  Another pass starts only while the elapsed time plus
    the last pass's length stays within ``seconds``, after MIN_PASSES."""
    setups = [set_up(workload, seed, workdir)[0] for _ in range(FIRST_SET_UPS - 1)]
    digests: dict = {}
    passes = []
    start = time.perf_counter()
    while True:
        took, ops, wl = set_up(workload, seed, workdir)
        setups.append(took)
        begin = time.perf_counter()
        passes.append(run_pass(ops, wl, digests, reference=reference))
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now - start + (now - begin) > seconds:
            return setups, ops, passes


def end_to_end(workload: str, seed: int, workdir: str, seconds: float):
    """End-to-end metrics.  The speed a shared host gives one process flips
    between a fast and a slow phase, about 2x apart, within a second, so
    each op's latency is the best of its executions in the run (every op
    runs at least MIN_PASSES times, spread over the run); the percentiles
    and the check rate are taken over the op mix with those latencies.
    Slower phases can also last minutes, so the timings are divided by the
    slowdown of the reference kernels sampled in the same run."""
    import reference

    ref = reference.Reference()
    setups, ops, passes = timed_phase(workload, seed, workdir, seconds, ref)
    best: dict = {}
    for p in passes:
        for op, ns in zip(ops, p["latencies"]):
            best[op.argv] = min(ns, best.get(op.argv, ns))
    latencies = [best[op.argv] for op in ops]
    checks = sum(p["checks"] for p in passes) / len(passes)
    raw = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": _quantile(latencies, 0.5) / 1e6,
        "op_p90_ms": _quantile(latencies, 0.9) / 1e6,
        "checks_per_s": checks / (sum(latencies) / 1e9),
    }
    slowdown = ref.slowdown()
    metrics = {name: value * slowdown if name == "checks_per_s" else value / slowdown
               for name, value in raw.items()}
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    blocks: dict = {}
    for op, ns in zip(ops, latencies):
        blocks.setdefault(op.block, []).append(ns / 1e6)
    extra = {"passes": len(passes), "set_ups": len(setups),
             "best_of_min": min(Counter(op.argv for op in ops).values()) * len(passes),
             "block_median_ms": {b: round(statistics.median(v), 3)
                                 for b, v in blocks.items()},
             "timed_s": sum(sum(p["latencies"]) for p in passes) / 1e9,
             "unscaled": raw, "host_slowdown": slowdown,
             "reference_best_ms": ref.best / 1e6,
             "reference_samples": ref.samples}
    return ops, passes, metrics, dict(END_TO_END_UNITS), extra


def per_layer(workload: str, seed: int, workdir: str, out_stem: str):
    """One pass untraced, then the same pass under the tracer."""
    import tracing

    for _ in range(FIRST_SET_UPS):
        _, ops, wl = set_up(workload, seed, workdir)
    digests: dict = {}
    t0 = time.perf_counter_ns()
    plain = run_pass(ops, wl, digests)
    untraced_ns = time.perf_counter_ns() - t0

    tracer = tracing.Tracer()
    tracer.install(tropmono_modules())
    try:
        t0 = time.perf_counter_ns()
        traced = run_pass(ops, wl, digests, tracer)
        t1 = time.perf_counter_ns()
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, untraced_ns, t0, t1)
    tracer.write(out_stem + "-spans.txt.gz")
    extra = {"spans": len(tracer.start),
             "outside_s": tracing.outside_time(t0, t1, tracer.start, tracer.end,
                                               tracer.parent) / 1e9}
    return ops, [plain, traced], metrics, {m: _unit(m) for m in metrics}, extra


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("elim_cells"):
        return "cells"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("superform_battery", "tower_ladder",
                                 "dual_complex_e2"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tropmono", "cli.py")):
        print(f"error: no tropmono sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [SRC, BENCH]
    run_dir = os.path.join(".bench_run", f"{args.workload}-{args.seed}-{os.getpid()}")
    out_dir = ".bench_out"
    os.makedirs(out_dir, exist_ok=True)
    out_stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    fixtures = os.path.join(run_dir, "fixtures")
    try:
        if args.trace:
            ops, passes, metrics, units, extra = per_layer(
                args.workload, args.seed, fixtures, out_stem)
        else:
            ops, passes, metrics, units, extra = end_to_end(
                args.workload, args.seed, fixtures, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(p["latencies"]) for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "ops_in_mix": len(ops),
        "blocks": {b: sum(op.block == b for op in ops)
                   for b in dict.fromkeys(op.block for op in ops)},
        "samples": attempted,
        "ops_failed_ratio": len(errors) / attempted,
        "src_lines": src_lines(),
        **extra,
    }
    for op, error in errors[:10]:
        print(f"FAILED {' '.join(op.argv)}: {error}")
    for name, value in metrics.items():
        print(f"{args.workload:18s} {name:44s} {value:14.6g} {units[name]}")
    print(f"{args.workload:18s} {'ops_failed_ratio':44s} {len(errors) / attempted:14.6g} "
          f"ratio ({len(errors)}/{attempted})")
    print("context " + json.dumps(context, sort_keys=True))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    with open(out_stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"context": context, **result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
