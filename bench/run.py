"""Run one workload of the ssro benchmark and print its metrics.

    python3 bench/run.py --workload mc_readout --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  Operations of the workload repeat, each iteration with fresh
seeded inputs, until the timed operations have taken ``--seconds``; every
iteration's outputs are checked afterwards, untimed.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics.
Times are scaled to the reference speed of speed.py, measured around each
operation, because a shared machine drifts between slow and fast periods
for longer than a run; the raw times are in the report.

- setup_s: median over fresh interpreters of importing ssro, loading the
  shipped config and building the protocols;
- wall_s: time to solution of one iteration, the sum over its operations of
  each operation's median time across iterations;
- peak_rss_mb: peak resident memory of the run, read after the last
  iteration and before the once-per-run checks.

With ``--trace 1`` iterations alternate between untraced and traced; the
last line reports the per-layer metrics of the traced ones (see spans.py)
and ``trace_overhead_frac``, the traced against the untraced iteration time.
Per-layer times are raw seconds.

The line before the last holds the full report: environment, raw and scaled
operation times, check problems and recorded, ungated estimates.  The report and
the spans of a traced run are also written under ``bench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
SETUP_SAMPLES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds(samples: int) -> list[tuple[float, float]]:
    """Set-up time in fresh interpreters, one after another, as (raw,
    scaled to the reference speed by kernels run around each probe)."""
    import speed
    times = []
    kernel = speed.kernel_seconds()
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), SRC],
            capture_output=True, text=True, timeout=120, check=True)
        raw = float(proc.stdout.split()[-1])
        before, kernel = kernel, speed.kernel_seconds()
        times.append((raw, speed.scaled(raw, before, kernel)))
    return times


def git_sha() -> str | None:
    """HEAD of a git checkout at ROOT, read from its files; None elsewhere."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "workload_seed": seed,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def iterate(workload, seconds, tracer, problems, counts):
    """Run iterations until the timed operations have taken `seconds`, and
    at least two, so a traced run has one of each kind.

    Returns per-operation raw and scaled durations, and per iteration
    (scaled total, traced).
    """
    from workloads import Body
    raw = {op: [] for op in workload.ops}
    scaled = {op: [] for op in workload.ops}
    iterations = []
    timed, it = 0.0, 0
    while it < 2 or timed < seconds:
        traced = tracer is not None and it % 2 == 1
        body = Body()
        if traced:
            tracer.iteration = it
            tracer.install()
        try:
            out = workload.run(body, it)
        finally:
            if traced:
                tracer.uninstall()
        timed += sum(body.times.values())
        iterations.append((sum(body.scaled.values()), traced))
        for op in body.times:
            raw.setdefault(op, []).append(body.times[op])
            scaled.setdefault(op, []).append(body.scaled[op])
        try:
            result = workload.check(out, it)
        except Exception:
            result = {op: [traceback.format_exc()] for op in workload.ops}
        record(workload.ops, body.errors, result, problems, counts, it)
        it += 1
    return raw, scaled, iterations


def record(ops, errors, result, problems, counts, it):
    """Count each operation as attempted, and failed if it raised, was
    never checked or failed its check."""
    for op in ops:
        counts["attempted"] += 1
        found = []
        if op in errors:
            found.append(errors[op])
        elif op not in result:
            found.append("no output was checked")
        found += result.get(op, [])
        if found:
            counts["failed"] += 1
            problems.append({"iteration": it, "op": op, "problems": found})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ssro", "__init__.py")):
        print(f"error: no ssro sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    # SSRO_ overrides would change the inputs, here and in the set-up probes
    for key in [k for k in os.environ if k.startswith("SSRO_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import workloads
    from spans import Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ssro = workloads.ssro
    if os.path.dirname(os.path.abspath(ssro.__file__)) != \
            os.path.join(SRC, "ssro"):
        print(f"error: imported ssro from {ssro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        setup = workloads.configure()
    finally:
        if tracer is not None:
            tracer.uninstall()

    setup_samples = [] if args.trace else setup_seconds(SETUP_SAMPLES)

    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](setup, args.seed, workdir)
    problems: list[dict] = []
    counts = {"attempted": 0, "failed": 0}
    workload.prepare()
    try:
        op_raw, op_scaled, iterations = iterate(workload, args.seconds,
                                                tracer, problems, counts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rss = peak_rss_mb()
    final = workload.finish()
    record(tuple(final), {}, final, problems, counts, len(iterations))

    def median_sum(times):
        return sum(statistics.median(t) for t in times.values() if t)

    wall = median_sum(op_scaled)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "iteration_scaled_s": [total for total, _ in iterations],
        "op_raw_s": op_raw,
        "op_scaled_s": op_scaled,
        "notes": workload.notes,
        "problems": problems,
    }
    if args.trace:
        traced_its = [i for i, (_, t) in enumerate(iterations) if t]
        plain = [tot for tot, t in iterations if not t]
        traced = [tot for tot, t in iterations if t]
        metrics = layer_metrics(tracer.spans, traced_its)
        metrics["trace_overhead_frac"] = (statistics.median(traced)
                                          / statistics.median(plain) - 1)
        for name in workload.layers + ("config.load_config_s",):
            if not metrics[name] > 0:
                counts["failed"] += 1
                problems.append({"op": "trace", "problems": [
                    f"{name} recorded no spans on {args.workload}"]})
        counts["attempted"] += 1
        out_metrics = {name: {"value": value, "unit": units[name]}
                       for name, value in metrics.items()}
        report["spans"] = len(tracer.spans)
    else:
        shots = workload.shots
        raw_wall = median_sum(op_raw)
        report["setup_samples_s"] = setup_samples
        report["derived"] = {
            "raw_wall_s": raw_wall,
            "raw_setup_s": statistics.median(r for r, _ in setup_samples),
            "shots_per_s": shots / raw_wall if shots else None,
            "error_rate": counts["failed"] / counts["attempted"],
        }
        if "output_bytes_per_iteration" in workload.notes:
            report["derived"]["output_mb"] = statistics.median(
                workload.notes["output_bytes_per_iteration"]) / 1e6
        values = {"setup_s": statistics.median(s for _, s in setup_samples),
                  "wall_s": wall, "peak_rss_mb": rss}
        out_metrics = {name: {"value": value, "unit": units[name]}
                       for name, value in values.items()}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, default=str)
    if tracer is not None:
        tracer.save(stem + "-spans.npz")
    for p in problems:
        print(f"FAILED {p['op']}: " + " | ".join(p["problems"]),
              file=sys.stderr)
    print(json.dumps(report, default=str))
    print(json.dumps({"correct": counts["failed"] == 0,
                      "attempted": counts["attempted"],
                      "failed": counts["failed"],
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
