"""uapforge benchmark entry point.

    python3 bench/run.py --workload craft-dm --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from `src/` next to
this directory. A run sets its workload up `SETUP_REPEATS` times from the
seed (timed; the median is `setup_s`), then runs operations as a closed loop,
one after the other, for `--seconds`, checking every output. A throughput
is the work of all the run's operations divided by their time, and
`pipeline_s` is their mean wall time. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
`--trace 0` the metrics are the end-to-end ones of BENCHMARK.json, with
`--trace 1` the per-layer ones: the run then alternates untraced and traced
operations, reports per-layer medians over the traced ones and the tracing
overhead, and writes every span to `bench/results/`. Each run also writes a
result file there with an environment stamp, per-operation times and the
delta content hashes.

`--tiny` shrinks every workload to a few samples; `bench/smoke.py` uses it.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
WORKLOADS = ("craft-dm", "craft-spgd-rgb", "cli-pipeline")


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _blas_threads():
    """Thread count of the OpenBLAS library numpy loaded, or None."""
    import ctypes

    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "seed": seed,
        "steadying": [
            "one process, closed loop, no threads beyond the BLAS pool",
            "throughputs are total work over total time of all operations, which are spread over "
            "the whole run; pipeline_s is the mean operation; setup_s is the median of "
            f"{SETUP_REPEATS} set-ups",
            "UAPFORGE_* variables are removed from the environment before the run",
        ],
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _rate(ops, phase):
    """Samples per second of one phase over all given operations.

    The host's cores change speed in phases of seconds to minutes, so per-
    operation times are bimodal; total work over total time weighs each
    phase by how long it lasted, where a median would jump between modes.
    """
    seconds = sum(op[f"{phase}_s"] for op in ops)
    return sum(op[f"{phase}_samples"] for op in ops) / seconds if seconds > 0 else 0.0


def end_to_end(setups, ops):
    ok = [op for op in ops if not op["failures"]]
    return {
        "setup_s": _median([s["setup_s"] for s in setups]),
        "craft_samples_per_s": _rate(ok, "craft"),
        "train_samples_per_s": _rate(ok, "train"),
        "eval_samples_per_s": _rate(ok, "eval"),
        "pipeline_s": statistics.fmean([op["wall_s"] for op in ok]) if ok else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_ratio": (len(ops) - sum(bool(op["failures"]) for op in ops)) / len(ops),
    }


def self_times(stats, ops):
    """Median self time per traced operation of every span name, largest first."""
    runs = [stats[op["run_id"]] for op in ops if op["traced"] and not op["failures"]]
    names = {k[:-len(".self_ms")] for run in runs for k in run if k.endswith(".self_ms")}
    table = {name: _median([run.get(name + ".self_ms", 0.0) for run in runs]) for name in names}
    return dict(sorted(table.items(), key=lambda item: -item[1]))


def per_layer(names, stats, ops):
    from spans import resolve

    traced = [op for op in ops if op["traced"] and not op["failures"]]
    # each traced operation directly follows an untraced one; pairing them
    # keeps drift over the run out of the overhead
    pairs = [(a["wall_s"], b["wall_s"]) for a, b in zip(ops[0::2], ops[1::2])
             if not a["failures"] and not b["failures"]]
    overhead_s = _median([b - a for a, b in pairs])
    out = {}
    for name in names:
        if name == "bench.trace.overhead_ms":
            out[name] = 1e3 * overhead_s
        elif name == "bench.trace.overhead_ratio":
            out[name] = overhead_s / _median([a for a, _ in pairs]) if pairs else 0.0
        elif name == "evaluate.fooling_ratio.ratio":
            out[name] = next((op["fooling_ratio"] for op in ops if not op["failures"]), 0.0)
        elif name.startswith("setup."):
            out[name] = resolve(stats["setup"], name[len("setup."):])
        else:
            out[name] = _median([resolve(stats[op["run_id"]], name) for op in traced])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few samples per workload (smoke check)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "uapforge" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no uapforge sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("UAPFORGE_")]:
        del os.environ[key]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import uapforge
    import workloads
    from spans import Tracer

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    results = HERE / "results"
    workdir = HERE / "work" / f"{tag}-{os.getpid()}"
    results.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, str(workdir), tiny=args.tiny)
    tracer = Tracer() if args.trace else None
    try:
        setups = []
        for _ in range(1 if tracer else SETUP_REPEATS):
            if tracer:
                tracer.run_id = "setup"
                tracer.install(uapforge)
            start = time.perf_counter()
            try:
                state = workload.setup(args.seed)
            finally:
                if tracer:
                    tracer.uninstall()
            setups.append({"setup_s": time.perf_counter() - start})

        ops, first, took = [], None, []
        start = time.perf_counter()
        # stop before an operation that would likely end past --seconds
        while len(ops) < (2 if tracer else 1) or time.perf_counter() - start + _median(took) <= args.seconds:
            begun = time.perf_counter()
            traced = bool(tracer) and len(ops) % 2 == 1
            run_id = f"op{len(ops)}"
            if traced:
                tracer.run_id = run_id
                tracer.install(uapforge)
            try:
                op = workload.op(state)
            except Exception as exc:  # a failed operation is counted, never dropped
                if not any(op["failures"] for op in ops):
                    traceback.print_exc(file=sys.stderr)
                op = {"failures": [f"raised {exc!r}"], "wall_s": float("nan")}
            finally:
                if traced:
                    tracer.uninstall()
            first = first or (op if not op["failures"] else None)
            if first is not None and not op["failures"]:
                for key in ("delta_hash", "fooling_ratio", "train_hash"):
                    if op.get(key) != first.get(key):
                        op["failures"].append(f"{key} differs from the run's first operation")
            ops.append({**op, "run_id": run_id, "traced": traced})
            took.append(time.perf_counter() - begun)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(bool(op["failures"]) for op in ops)
    record = {"workload": args.workload, "environment": environment(args.seed), "setups": setups,
              "operations": ops, "fooling_ratio": first["fooling_ratio"] if first else None,
              "delta_hash": first["delta_hash"] if first else None}
    if tracer:
        tracer.write(results / f"{tag}.spans.csv")
        stats = tracer.stats()
        record["self_ms_per_op"] = self_times(stats, ops)
        names, values = spec["per_layer"], per_layer([m["name"] for m in spec["per_layer"]], stats, ops)
    else:
        names, values = spec["end_to_end"], end_to_end(setups, ops)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    summary = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    record.update(summary)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")
    for op in ops:
        for failure in op["failures"]:
            print(f"FAILED {op['run_id']}: {failure}")
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations, {failed} failed, "
          f"fooling ratio {record['fooling_ratio']}, delta {str(record['delta_hash'])[:16]}")
    for name, ms in list(record.get("self_ms_per_op", {}).items())[:10]:
        print(f"  self time per traced operation: {name} {ms:.1f} ms")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
