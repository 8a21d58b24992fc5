"""Benchmark of divcurl: one workload per process, a closed loop of one caller.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload warm_draws --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (ops_per_s, op_s_p50, peak_rss_mb, setup_s), times
in reference seconds (see hostspeed.py) and wall times on stderr; with
``--trace 1`` it holds the per-layer metrics instead, and the spans go to
``.bench_out/trace-<workload>-seed<seed>.json``.  Every operation's
output is checked outside the timed region; see README.md.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("warm_draws", "cold_verify", "mesh_roundtrip")
SETUP_REPEATS = 3
# One thread for every BLAS/OpenMP pool: one caller, and two cores on the
# reference host.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="divcurl benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # Every run compiles the package the same way and leaves nothing behind.
    sys.dont_write_bytecode = True
    if not os.path.isfile(os.path.join(SRC, "divcurl", "__init__.py")):
        print(f"perfbench: no divcurl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import divcurl  # noqa: F401  -- also the first import of numpy and scipy
    import_s = time.perf_counter() - start

    import spans
    import workloads

    recorder = spans.Recorder() if args.trace else None
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if recorder:
            recorder.install()
        result = measure(workload, args.seconds, import_s, recorder)
    finally:
        if recorder:
            recorder.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        return 1
    tag = f"{args.workload}-seed{args.seed}"
    if recorder:
        write_json(os.path.join(OUT_DIR, f"trace-{tag}.json"),
                   {"workload": args.workload, "seed": args.seed,
                    "spans": recorder.trace()})
    write_json(os.path.join(OUT_DIR, f"result-{tag}-trace{args.trace}.json"), result)
    print(json.dumps(result))
    return 0


def measure(workload, seconds, import_s, recorder):
    import hostspeed
    import spans

    def phase(name):
        return recorder.span(name) if recorder else contextlib.nullcontext()

    # Import time in reference seconds, by the kernel run just after it.
    after_import = hostspeed.kernel_s()
    import_ref = hostspeed.reference_s(import_s, after_import, after_import)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = hostspeed.kernel_s()
        start = time.perf_counter()
        with phase(spans.SETUP):
            workload.setup()
        elapsed = time.perf_counter() - start
        setup_times.append(hostspeed.reference_s(elapsed, before, hostspeed.kernel_s()))

    # Per operation: wall seconds and reference seconds.
    walls, refs, attempted, failed, correct = [], [], 0, 0, True
    timed = timed_ref = 0.0
    while timed < seconds:
        attempted += 1
        gc.collect()
        before = hostspeed.kernel_s()
        start = time.perf_counter()
        out = error = None
        try:
            with phase(spans.OP):
                out = workload.op(attempted)
        except Exception:  # a raising operation counts as failed; keep going
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        elapsed_ref = hostspeed.reference_s(elapsed, before, hostspeed.kernel_s())
        timed += elapsed
        timed_ref += elapsed_ref
        if error:
            failed += 1
            print(error, file=sys.stderr)
            continue
        problems = [f"{name}: {p}" for name, found in workload.verify(out) for p in found]
        out = None
        if problems:
            failed += 1
            correct = False
            print(f"perfbench: operation {attempted} failed its checks: {problems}",
                  file=sys.stderr)
        else:
            walls.append(elapsed)
            refs.append(elapsed_ref)
    if not walls:
        print("perfbench: no operation completed", file=sys.stderr)
        return None

    print(f"perfbench: {workload.name} ops={len(walls)} timed={timed:.2f}s "
          f"wall ops_per_s={len(walls) / timed:.4f} op_s_p50={statistics.median(walls):.4f} "
          f"reference ops_per_s={len(refs) / timed_ref:.4f} "
          f"op_s_p50={statistics.median(refs):.4f} "
          f"setup={[round(t, 3) for t in setup_times]} import={import_s:.3f}s",
          file=sys.stderr)
    if recorder:
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in recorder.metrics().items()}
    else:
        metrics = {
            "ops_per_s": {"value": len(refs) / timed_ref, "unit": "1/s"},
            "op_s_p50": {"value": statistics.median(refs), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "setup_s": {"value": import_ref + statistics.median(setup_times), "unit": "s"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
