"""Benchmark of the pignet library: train, eval and robustness workloads.

One run:
    python3 bench/run.py --workload train --seed 1 --seconds 25 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``; it exits with status 1 when a check fails.
A traced run also writes its spans to
``bench/out/trace-<workload>-seed<seed>.json``.

Repeat mode:
    python3 bench/run.py --repeat 10 [--workload eval] [--trace 1]

runs each workload once per seed 1..N, each in its own process, and prints
every metric's median and quartiles with its spread against the bound in
BENCHMARK.json. With ``--trace 1`` it runs a traced run beside each untraced
one and also prints the per-layer figures and the tracing overhead.

The library is imported from ``src/`` of the checkout this file sits in;
without it the run stops with exit status 2.
"""

import time

# read before the other imports, so that setup_s includes them
PROCESS_START = time.perf_counter()

import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
OUT = os.path.join(BENCH, "out")
WORK = os.path.join(BENCH, "work")
WORKLOAD_NAMES = ("train", "eval", "robustness")

# one compute thread: the machine has 2 cores, and a second thread would
# make the figures depend on what else the machine runs
THREAD_SETTINGS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1", "PIGNET_THREADS": "1"}

# glibc's allocator keeps freed memory in the process instead of returning
# it to the kernel (no mmap'd chunks, no heap trimming). By default it maps
# large blocks afresh, under a threshold that rises with what the process
# freed before, and every page of a fresh block faults on first touch; so a
# figure depended on the process's history and on what a page fault cost the
# VM at that moment, and a 76 MB save took 120 ms in one run and 180 ms in
# the next.
M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4
ALLOCATOR_SETTINGS = ((M_MMAP_MAX, 0), (M_TRIM_THRESHOLD, 1 << 30))


def use_checkout_sources():
    """Pin the thread counts and the allocator, and import pignet from this
    checkout's src/; returns the seconds since the process started."""
    os.environ.update(THREAD_SETTINGS)
    libc = ctypes.CDLL("libc.so.6")
    for option, value in ALLOCATOR_SETTINGS:
        if libc.mallopt(option, value) != 1:
            print(f"error: mallopt({option}, {value}) failed", file=sys.stderr)
            sys.exit(2)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pignet", "__init__.py")):
        print(f"error: no pignet sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import pignet
    if os.path.dirname(os.path.abspath(pignet.__file__)) != \
            os.path.join(src, "pignet"):
        print(f"error: imported pignet from {pignet.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return time.perf_counter() - PROCESS_START


def run_once(args):
    import_s = use_checkout_sources()
    import checks
    import workloads
    from spans import Tracer

    own, rounds, others = workloads.plan(args.workload, args.seconds)
    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        tracer = Tracer() if args.trace else None
        state = workloads.RunState(args.seed, work_dir, tracer)
        setups = [state.setup() for _ in range(workloads.SETUP_REPEATS)]
        setup_s = import_s + statistics.median(setups)

        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        for _ in range(rounds):
            for op in own:
                state.run(op)
        own_s = time.perf_counter() - start
        # before the other operations, so that it is this workload's own
        rss_mb = workloads.peak_rss_mb()
        for _ in range(workloads.OTHER_CALLS):
            for op in others:
                state.run(op)
        others_s = time.perf_counter() - start - own_s
        if tracer is not None:
            tracer.uninstall()

        end_to_end = state.end_to_end(setup_s, rss_mb)
        # the checks look at the calls that succeeded
        checks_start = time.perf_counter()
        try:
            workloads.CHECKS[args.workload](state)
            correct = True
        except checks.CheckFailed:
            correct = False
            traceback.print_exc(file=sys.stderr)
        checks_s = time.perf_counter() - checks_start
        metrics = end_to_end
        if tracer is not None:
            metrics = workloads.per_layer(tracer, own)
            tracer.dump(os.path.join(
                OUT, f"trace-{args.workload}-seed{args.seed}.json"),
                {"workload": args.workload, "seed": args.seed,
                 "end_to_end": end_to_end})
            for name, m in end_to_end.items():
                print(f"traced {name} {m['value']:.6g} {m['unit']}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"{args.workload}: set-ups "
          f"{' '.join(f'{s:.2f}' for s in setups)} s; "
          f"{rounds} rounds of {' '.join(own)} in {own_s:.1f} s; "
          f"{workloads.OTHER_CALLS} calls of {' '.join(others)} in "
          f"{others_s:.1f} s; checks {checks_s:.1f} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": state.attempted,
                      "failed": state.failed, "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# repeat mode
# ---------------------------------------------------------------------------

def _one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if trace:
        path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
        with open(path) as fh:
            result["end_to_end"] = json.load(fh)["end_to_end"]
    return result


def _stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def repeat(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    summary = {}
    for workload in names:
        plain, traced = [], []
        for seed in range(1, args.repeat + 1):
            plain.append(_one(workload, seed, seconds, 0))
            if args.trace:
                traced.append(_one(workload, seed, seconds, 1))
        entry = {"seeds": [1, args.repeat],
                 "correct": all(r["correct"] for r in plain + traced),
                 "failed_share": sorted({r["failed"] / r["attempted"]
                                         for r in plain + traced}),
                 "end_to_end": {}}
        print(f"\n{workload}: {args.repeat} runs of {seconds} s, "
              f"correct={entry['correct']}, failed share "
              f"{entry['failed_share']}")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for name in bounds:
            st = _stats([r["metrics"][name]["value"] for r in plain])
            st["bound"] = bounds[name]
            entry["end_to_end"][name] = st
            steady = name == "setup_s" or st["spread"] <= bounds[name] / 3
            flag = "" if steady else "  WIDE"
            print(f"  {name:28} {st['median']:12.6g} {st['q1']:12.6g} "
                  f"{st['q3']:12.6g} {st['spread']:7.2%} {bounds[name]:6.2f}"
                  f"{flag}")
        if traced:
            entry["per_layer"] = {}
            entry["tracing_overhead"] = {}
            print("  tracing overhead (traced median against untraced):")
            for name in bounds:
                value = statistics.median(r["end_to_end"][name]["value"]
                                          for r in traced)
                base = entry["end_to_end"][name]["median"]
                entry["tracing_overhead"][name] = (value - base) / base
                print(f"  {name:28} {value:12.6g} "
                      f"{(value - base) / base:+8.2%}")
            print(f"  {'per-layer metric':28} {'median':>12} {'q1':>12} "
                  f"{'q3':>12}")
            for name in traced[0]["metrics"]:
                st = _stats([r["metrics"][name]["value"] for r in traced])
                entry["per_layer"][name] = st
                print(f"  {name:28} {st['median']:12.6g} {st['q1']:12.6g} "
                      f"{st['q3']:12.6g}")
        summary[workload] = entry
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"repeat-{'-'.join(names)}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"\nwrote {os.path.relpath(path, ROOT)}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="runs per workload, with seeds 1 to N")
    args = parser.parse_args(argv)
    if args.repeat:
        return repeat(args)
    if args.workload is None or args.seconds is None:
        parser.error("a single run needs --workload and --seconds")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
