"""epdifflab benchmark: time to a checked verdict on four workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload blowup_1d --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the run times set-up and verdicts untraced, normalized to
a nominal host speed by ``hostclock``, and prints the end-to-end metrics.
With ``--trace 1`` it times verdicts untraced for half the budget, then
traces two repeats of set-up plus verdict and prints the per-layer metrics.  Every verdict is gated at the repository's acceptance
tolerances.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(machine, samples, accuracy values, gates) is written under ``.bench_out/``.

The load is one process; BLAS and OpenMP run one thread each.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
OUT = REPO / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is sampled before and after the verdicts, each time within
# SETUP_SHARE of the budget, so its median spans the run like run_s does.
SETUP_MIN, SETUP_MAX, SETUP_SHARE = 3, 12, 0.05
TRACED_REPEATS = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser


class GateLog:
    """Counts correctness gates; a failed gate is named in the record."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)


def program_digest() -> str:
    """Digest of the package source and the benchmark; keys cross-run records."""
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(BENCH_DIR.rglob("*.py")) + sorted(BENCH_DIR.rglob("*.ini"))
    for path in files:
        h.update(str(path.relative_to(REPO)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_record(path: Path, key: str, value, gates: GateLog, gate: str) -> None:
    """Compare ``value`` with what an earlier run of the same program stored
    under ``key``; store it if no run did yet."""
    record = json.loads(path.read_text()) if path.is_file() else {}
    if key in record:
        gates.check(gate, record[key] == value)
        return
    record[key] = value
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(tmp, path)


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_record(digest: str) -> dict:
    import numpy
    import scipy

    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f).strip() for f in ("level", "type", "size"))
        if level:
            caches[f"L{level}-{kind}"] = size
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    head = _read(REPO / ".git" / "HEAD").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        head = _read(REPO / ".git" / ref).strip() or next(
            (line.split()[0] for line in _read(REPO / ".git" / "packed-refs").splitlines()
             if line.endswith(" " + ref)), "")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "load_processes": 1,
        "git_sha": head or "unavailable (not a git checkout)",
        "program_digest": digest,
    }


def time_setups(workload, seed: int, out_dir: Path, budget: float, clock):
    """Set up several times within a share of ``budget``; return the
    measured intervals and the last context."""
    intervals = []
    deadline = perf_counter() + SETUP_SHARE * budget
    ctx = None
    while len(intervals) < SETUP_MIN or (len(intervals) < SETUP_MAX and perf_counter() < deadline):
        gc.collect()
        spent0, t0 = clock.spent, perf_counter()
        ctx = workload.setup(seed, out_dir)
        intervals.append((t0, perf_counter(), clock.spent - spent0))
    return intervals, ctx


def run_verdict(workload, ctx, gates: GateLog, state: dict, clock):
    """One gated verdict; returns its interval and the verdict, or None if it raised."""
    gc.collect()
    spent0, t0 = clock.spent, perf_counter()
    try:
        verdict = workload.verdict(ctx)
    except Exception:  # a verdict that raises is a failed gate, not a crashed benchmark
        traceback.print_exc(file=sys.stderr)
        gates.check("verdict_raised", False)
        return (t0, perf_counter(), clock.spent - spent0), None
    interval = (t0, perf_counter(), clock.spent - spent0)
    for name, ok in verdict.gates.items():
        gates.check(name, ok)
    if "outputs" in state:
        gates.check("outputs_identical_across_repeats", verdict.outputs == state["outputs"])
    else:
        state["outputs"] = verdict.outputs
    for name, value in verdict.accuracy.items():
        state.setdefault("accuracy", {}).setdefault(name, []).append(value)
    return interval, verdict


def run_untraced(workload, ctx, deadline: float, gates: GateLog, state: dict, clock):
    """Verdicts until the next one would end past ``deadline`` (at least one);
    returns their intervals and work units."""
    intervals, work = [], []
    while True:
        interval, verdict = run_verdict(workload, ctx, gates, state, clock)
        intervals.append(interval)
        if verdict is None:
            break
        work.append(verdict.work)
        typical = statistics.median(t1 - t0 for t0, t1, _ in intervals)
        if perf_counter() + typical > deadline:
            break
    return intervals, work


def run_traced(workload, args, out_dir: Path, gates: GateLog, state: dict):
    """Trace set-up plus verdict ``TRACED_REPEATS`` times; return per-repeat
    layer metrics and traced verdict durations."""
    import epdifflab
    import hostclock
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracing.install(tracer, epdifflab, extra_binders=(workloads,))
    per_repeat, durations = [], []
    for _ in range(TRACED_REPEATS):
        tracer.reset()
        tracer.active = True
        ctx = workload.setup(args.seed, out_dir)
        (t0, t1, _), _ = run_verdict(workload, ctx, gates, state, hostclock.WallClock())
        tracer.active = False
        durations.append(t1 - t0)
        spans = tracing.SpanTable(tracer)
        per_repeat.append(tracing.layer_metrics(spans, tracer))
    spans.save(out_dir / f"trace-seed{args.seed}.npz")
    return per_repeat, durations


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (SRC / "epdifflab" / "__init__.py").is_file():
        print(f"error: epdifflab sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import hostclock
    import tracing
    import workloads  # imports numpy and epdifflab under the thread settings above

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    digest = program_digest()
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    gates = GateLog()
    state: dict = {}

    # Traced runs keep plain wall time: reference ticks would show up as spans.
    budget = args.seconds / 2 if args.trace else args.seconds
    clock = hostclock.WallClock() if args.trace else hostclock.HostClock()
    t_start = perf_counter()
    with clock:
        setup_iv, ctx = time_setups(workload, args.seed, out_dir, budget, clock)
        verdict_iv, work = run_untraced(workload, ctx, t_start + (1 - SETUP_SHARE) * budget,
                                        gates, state, clock)
        if not args.trace:
            setup_iv += time_setups(workload, args.seed, out_dir, budget, clock)[0]
    setup_samples = [clock.normalized(*iv) for iv in setup_iv]
    durations = [clock.normalized(*iv) for iv in verdict_iv]
    rates = [w / d for w, d in zip(work, durations)]
    run_s = statistics.median(durations)
    lines = []

    if args.trace:
        per_repeat, traced = run_traced(workload, args, out_dir, gates, state)
        counts = [tracing.count_metrics(m) for m in per_repeat]
        for later in counts[1:]:
            gates.check("counts_identical_across_traced_repeats", later == counts[0])
        check_record(out_dir / "counts.json", digest, counts[0], gates,
                     "counts_identical_across_runs")
        metrics = {name: (value if name in counts[0]
                          else statistics.median(m[name][0] for m in per_repeat), unit)
                   for name, (value, unit) in per_repeat[0].items()}
        overhead = statistics.median(traced) - run_s
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_pct"] = (100.0 * overhead / run_s, "%")
        lines.append(f"tracing: {len(traced)} traced repeats, untraced run_s {run_s:.6g} s "
                     f"(median of {len(durations)}), traced {statistics.median(traced):.6g} s")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "run_s": (run_s, "s"),
            "work_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        wall = statistics.median(t1 - t0 for t0, t1, _ in verdict_iv)
        lines += [
            f"setup_s: median of {len(setup_samples)} set-ups",
            f"run_s: median of {len(durations)} verdicts (wall median {wall:.6g} s, "
            f"{len(clock.ticks)} host-speed ticks)",
            f"work_per_s: {workload.work_unit} per second, median of {len(rates)} verdicts",
        ]

    if "outputs" in state:
        check_record(out_dir / "outputs.json", f"{digest}/seed{args.seed}",
                     hashlib.sha256(state["outputs"]).hexdigest(), gates,
                     "outputs_identical_across_runs")
    error_rate = len(gates.failed) / max(gates.attempted, 1)
    machine = machine_record(digest)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": {"setup_s": setup_samples, "run_s": durations,
                    "run_wall_s": [t1 - t0 for t0, t1, _ in verdict_iv]},
        "accuracy": state.get("accuracy", {}),
        "gates": {"attempted": gates.attempted, "failed": gates.failed, "error_rate": error_rate},
    }
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for line in lines:
        print(line)
    for name, values in state.get("accuracy", {}).items():
        print(f"accuracy {name}: max {max(values):.6g} over {len(values)} verdicts")
    print(f"error_rate = {error_rate:g} ({len(gates.failed)} of {gates.attempted} gates failed"
          + (f": {sorted(set(gates.failed))}" if gates.failed else "") + ")")
    print(json.dumps({
        "correct": not gates.failed,
        "attempted": gates.attempted,
        "failed": len(gates.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
