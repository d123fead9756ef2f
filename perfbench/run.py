"""metacell benchmark: three workloads, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload dataset --seed 1 --seconds 10 --trace 0

Every workload runs all three phases (dataset, train, design, see
workloads.py) so that every end-to-end metric is measured on every workload;
the named workload's phase gets 60% of the window and the other two 20% each.
With --trace 0 the window is timed and the end-to-end metrics are reported.
With --trace 1 a fixed number of rounds runs once untraced and once traced,
and the per-layer metrics come from the traced pass.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import time

_STARTED = time.perf_counter()

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"

WORKLOADS = ("dataset", "train", "design")
FOCUS_SHARE = 0.6
SETUP_REPEATS = 3
# Seconds one round takes on a 2-core box with one BLAS thread.  The traced
# run sizes its fixed round counts from them, so its span counts repeat exactly.
NOMINAL_ROUND_S = {"dataset": 0.25, "train": 0.45, "design": 0.55}

# (metric, span, statistic, scale).  Statistics: mean or self_mean per call,
# total or self per fit epoch, and calls.
LAYER_METRICS = [
    ("geometry.encode_bits.us", "geometry.encode_bits", "mean", 1e6),
    ("geometry.decode_bits.us", "geometry.decode_bits", "mean", 1e6),
    ("surrogate.reflection_spectrum.calls", "surrogate.reflection_spectrum", "calls", 1),
    ("surrogate.reflection_spectrum.us", "surrogate.reflection_spectrum", "mean", 1e6),
    ("surrogate.notch_params.us", "surrogate.notch_params", "mean", 1e6),
    ("surrogate.lorentzian_sum.us", "surrogate.lorentzian_sum", "mean", 1e6),
    ("features.extract_notches.calls", "features.extract_notches", "calls", 1),
    ("features.extract_notches.us", "features.extract_notches", "mean", 1e6),
    ("features.target_of_cell.self_us", "features.target_of_cell", "self_mean", 1e6),
    ("features.assemble_input.us", "features.assemble_input", "mean", 1e6),
    ("pipeline.generate_dataset.self_ms", "pipeline.generate_dataset", "self_mean", 1e3),
    ("pipeline.dataset_text.ms", "pipeline.dataset_text", "mean", 1e3),
    ("pipeline.load_dataset.ms", "pipeline.load_dataset", "mean", 1e3),
    ("pipeline.verify_design.self_us", "pipeline.verify_design", "self_mean", 1e6),
    ("network.forward_train.ms", "network.forward_train", "mean", 1e3),
    ("network.backward.ms", "network.backward", "mean", 1e3),
    ("network.adam_step.ms", "network.adam_step", "mean", 1e3),
    ("network.forward_eval.ms", "network.forward_eval", "per_epoch", 1e3),
    ("network.forward_1row.us", "network.forward_1row", "mean", 1e6),
    ("network.save_checkpoint.ms", "network.save_checkpoint", "mean", 1e3),
    ("network.load_checkpoint.ms", "network.load_checkpoint", "mean", 1e3),
    ("estimator.fit.self_ms_per_epoch", "estimator.fit", "self_per_epoch", 1e3),
    ("estimator.design.self_us", "estimator.design", "self_mean", 1e6),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha():
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(np, nproc):
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def run_window(phases, shares, seconds):
    """Whole rounds until the window closes, each next round going to the
    phase furthest below its share of the time used so far."""
    used = [0.0] * len(phases)
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or any(p.rounds == 0 for p in phases)):
        i = min(range(len(phases)), key=lambda k: used[k] / shares[k])
        t0 = time.perf_counter()
        phases[i].round()
        used[i] += time.perf_counter() - t0


def run_fixed(phases, rounds):
    started = time.perf_counter()
    for phase, n in zip(phases, rounds):
        for _ in range(n):
            phase.round()
    return time.perf_counter() - started


def layer_metrics(tracer, epochs, step_flops, checkpoint_bytes, overhead_pct):
    """Per-layer values by name; spans that never ran are left out."""
    values = {}
    for metric, span, stat, scale in LAYER_METRICS:
        entry = tracer.get(span)
        if entry is None:
            continue
        calls, total, self_s = entry
        values[metric] = {
            "calls": calls,
            "mean": total / calls * scale,
            "self_mean": self_s / calls * scale,
            "per_epoch": total / epochs * scale,
            "self_per_epoch": self_s / epochs * scale,
        }[stat]
    step = [tracer.get(s) for s in
            ("network.forward_train", "network.backward", "network.adam_step")]
    if all(step):
        step_s = sum(total / calls for calls, total, _ in step)
        values["network.train_step_gflop_per_s"] = step_flops / step_s / 1e9
    values["network.checkpoint_bytes"] = checkpoint_bytes
    values["trace.overhead_pct"] = overhead_pct
    return values


def traced_run(phases, rounds, inputs, fit_epochs):
    """Run `rounds` untraced, then again traced; per-layer metrics."""
    untraced_s = run_fixed(phases[0], rounds)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        traced_s = run_fixed(phases[1], rounds)
    widths = [(layer.n_in, layer.n_out) for layer in inputs.designer.network_.dense_layers()]
    # Matmul FLOPs of one full-batch step, computed from the layer widths:
    # 2 per multiply-add forward, 4 backward (weight and input gradients).
    step_flops = 6 * len(inputs.X) * sum(a * b for a, b in widths)
    metrics = layer_metrics(tracer, rounds[1] * fit_epochs, step_flops,
                            phases[1][1].checkpoint_bytes,
                            100.0 * (traced_s - untraced_s) / untraced_s)
    return metrics, tracer


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # One BLAS thread: on a shared 2-core box a second thread makes fit
    # throughput jump between two levels whenever the other core is busy.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np
        import metacell
    except ImportError as exc:
        print(f"error: cannot import metacell from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    if not Path(metacell.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: metacell resolved to {metacell.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    import_s = time.perf_counter() - _STARTED

    import workloads as wl

    setup_s = []
    for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
        t0 = time.perf_counter()
        inputs = wl.build_inputs(args.seed)
        setup_s.append(time.perf_counter() - t0)
    expected, problems = wl.design_oracle(inputs)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    dataset_path = OUT_DIR / f"dataset-{os.getpid()}.jsonl"
    shares = [FOCUS_SHARE if w == args.workload else (1 - FOCUS_SHARE) / 2 for w in WORKLOADS]

    def fresh_phases():
        return [wl.DatasetPhase(args.seed, dataset_path), wl.TrainPhase(inputs),
                wl.DesignPhase(inputs, expected)]

    tracer = None
    try:
        if args.trace == 0:
            passes = [fresh_phases()]
            run_window(passes[0], shares, args.seconds)
            metrics = {"setup_s": import_s + statistics.median(setup_s),
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            for phase in passes[0]:
                metrics.update(phase.metrics())
        else:
            rounds = [max(1, round(args.seconds * share / NOMINAL_ROUND_S[w]))
                      for w, share in zip(WORKLOADS, shares)]
            passes = [fresh_phases(), fresh_phases()]
            metrics, tracer = traced_run(passes, rounds, inputs, wl.FIT_EPOCHS)
    finally:
        dataset_path.unlink(missing_ok=True)

    every = [phase for phases in passes for phase in phases]
    problems += [p for phase in every for p in phase.problems]
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    result = {"correct": not problems,
              "attempted": sum(phase.attempted for phase in every),
              "failed": sum(phase.failed for phase in every),
              "metrics": {name: {"value": value, "unit": units.get(name, "")}
                          for name, value in metrics.items()}}
    env = environment(np, nproc)

    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print("environment: " + json.dumps(env))
    for phase in passes[-1]:
        print(phase.summary())
    if tracer is not None:
        print("absent spans: " + (", ".join(tracer.absent) or "none"))
        for name, row in tracer.table().items():
            print(f"span {name}: {row['calls']} calls, {row['total_s'] * 1e3:.3f} ms total, "
                  f"{row['self_s'] * 1e3:.3f} ms self")
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, problems=problems,
                  spans=tracer.table() if tracer else None,
                  absent=tracer.absent if tracer else None)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
