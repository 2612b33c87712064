"""medlm benchmark: pretrain, finetune and generate, end to end and per layer.

Run every workload, each in its own process, one after another:

    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

or one workload in this process:

    python3 perfbench/run.py --workload pretrain --seed 3 --seconds 20 --trace 0

Run from the repository root: medlm is imported from ``src/`` next to
this directory, never from an installed copy. The process pins BLAS to
one thread before numpy loads, because multi-threaded OpenBLAS runs
small GEMMs far slower under CPU contention and the numbers would then
measure the scheduler; multi-threaded BLAS is not covered.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` traces three iterations, each after an untraced one, and
prints the per-layer metrics; traced and untraced iterations must
produce byte-identical checkpoints and metrics CSVs and identical
decoded ids.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record (environment,
workload-only metrics, every span total) goes to
``.perfbench_out/<workload>.json`` and the spans of a traced run to
``.perfbench_out/<workload>.spans.csv.gz``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QILIN_SEED", None)  # the seed reaches medlm only through the config

import argparse
import ctypes
import glob
import json
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Traced iterations per traced run. Spans stay in memory until the run ends,
# and a generate iteration makes about 110k of them.
TRACED_ITERATIONS = 3


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_medlm():
    if not os.path.isfile(os.path.join(SRC, "medlm", "__init__.py")):
        sys.exit(f"error: medlm sources not found under {SRC}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import medlm

    if os.path.dirname(os.path.abspath(medlm.__file__)) != os.path.join(SRC, "medlm"):
        sys.exit(f"error: imported medlm from {medlm.__file__}, not from {SRC}")


def blas_threads(np):
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                  "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout, read from .git without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy as np
    from medlm import kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(np),
        "python_threads": threading.active_count(),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "numba": bool(kernels.USE_NUMBA),
        "commit": git_commit(),
    }


def run_workload(name, seed, seconds, trace):
    import tracer as tr
    import workloads

    work = os.path.join(ROOT, ".perfbench_work", f"{name}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    env = environment()
    if env["blas_threads"] not in (1, None):
        sys.exit(f"error: BLAS runs {env['blas_threads']} threads, expected 1")
    wl = workloads.WORKLOADS[name](work, seed)
    tracer = tr.Tracer() if trace else None
    try:
        # A fresh set-up precedes every iteration, so set-up is sampled across
        # the whole run like the iterations are. The first iteration is a
        # warm-up, checked but not timed: a process's first iterations run slower.
        setup_times, iters, traced_walls, untraced_walls = [], [], [], []
        measured = 0.0
        warmup = None
        while warmup is None or measured < seconds or len(iters) < (2 if trace else 1):
            wl.reset()
            t0 = time.perf_counter()
            if trace:
                wl.setup(lambda: tracer.bucket("setup"))
            else:
                wl.setup()
            setup_times.append(time.perf_counter() - t0)
            if warmup is None:
                warmup = wl.iterate()
                wl.check(warmup)
                continue
            traced = trace and len(iters) % 2 == 1 and len(traced_walls) < TRACED_ITERATIONS
            t0 = time.perf_counter()
            if traced:
                with tracer.bucket("iteration"):
                    it = wl.iterate()
            else:
                it = wl.iterate()
            it.wall = time.perf_counter() - t0
            measured += it.wall
            wl.check(it)
            iters.append(it)
            (traced_walls if traced else untraced_walls).append(it.wall)
    finally:
        wl.reset()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(it.attempted for it in [warmup] + iters)
    failed = sum(it.failed for it in [warmup] + iters)
    latencies_ms = [x * 1e3 for it in iters for x in it.latencies]
    wall = statistics.median(untraced_walls)
    e2e = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "tokens_per_s": iters[0].tokens / wall,
        "peak_rss_mb": rss_mb,
        "request_ms_p50": tr.percentile(latencies_ms, 50),
        "request_ms_p90": tr.percentile(latencies_ms, 90),
    }
    extra = {
        "error_rate": failed / attempted,
        "iterations": len(iters),
        "requests": len(latencies_ms),
        "tokens_per_iteration": iters[0].tokens,
    }
    for stage, loss in warmup.losses.items():
        extra[f"{stage}_loss_final"] = loss
    spec = load_spec()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": env, "end_to_end": e2e, "workload_metrics": extra,
              "setup_times_s": setup_times,
              "iteration_walls_s": [it.wall for it in iters],
              "request_ms": latencies_ms}
    if trace:
        layers = tr.layer_metrics(tracer, traced_walls, untraced_walls)
        record["per_layer"] = dict(sorted(layers.items()))
        # traced and untraced iterations all reproduced the untraced warm-up
        record["selftest_identical_outputs"] = all(it.same_as_first for it in iters)
        tracer.write(os.path.join(out_dir, f"{name}.spans.csv.gz"))
        values = {m["name"]: layers.get(m["name"], 0.0) for m in spec["per_layer"]}
    else:
        values = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"iterations {len(iters)}  requests {len(latencies_ms)}")
    print("env " + json.dumps(env))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    shown = dict(e2e) if not trace else values
    for key, value in shown.items():
        print(f"  {key:<44} {value:>14.6g} {units.get(key, '')}")
    if not trace:
        print(f"  {'error_rate':<44} {extra['error_rate']:>14.6g} ratio "
              f"({failed}/{attempted} operations)")
        for stage in ("cpt", "sft", "dpo"):
            if f"{stage}_loss_final" in extra:
                print(f"  {stage + '_loss_final':<44} {extra[stage + '_loss_final']:>14.6g} nats")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_medlm()
    if args.workload != "all":
        run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        return 0
    status = 0
    for name in names:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)])
        status = max(status, proc.returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
