"""Wall-time benchmark of the Orthrus reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload kv-read --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --record-golden           # after a deliberate change

A run sets up the workload, checks one pass on the default seed against
its golden fingerprint, then repeats passes on ``--seed``'s inputs for
``--seconds``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` reports the per-layer metrics from a
separately traced run.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: cold set-ups per run; setup_s is their median
SETUP_REPEATS = 3
#: printed but not in the JSON: the virtual-time results, which the
#: fingerprint gates exactly, and the raw readings behind the calibration
REPORTED_UNITS = {
    "virt.val_p95_us": "us",
    "virt.coverage": "ratio",
    "virt.orthrus_overhead_pct": "%",
    "virt.mem_overhead_pct": "%",
    "pass_wall_s": "s",
    "setup_wall_s": "s",
    "kernel_s": "s",
}


def _bootstrap() -> None:
    """Put the source tree and this package on the import path."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perfbench: no simulator source under {ROOT / 'src'}")
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
class Passes:
    """Runs passes, judges each, and counts attempts and failures."""

    def __init__(self, workload, counts):
        self.workload = workload
        self.counts = counts
        self.attempted = 0
        self.failed = 0

    def run(self, inputs, judge, wrap=None, run_pass=None, root=None):
        """One pass; returns ``(wall_s, outcome or None)``.

        ``root`` is a traced run's ``LayerTracer.root`` span, which then
        supplies the wall time.
        """
        from perfbench.workloads import _no_wrap

        run_pass = run_pass or self.workload.run_pass
        self.attempted += 1
        outcome, problems, traced_wall = None, [], []
        start = time.perf_counter()
        try:
            if root is None:
                outcome = run_pass(inputs, self.counts, wrap or _no_wrap)
            else:
                with root() as traced_wall:
                    outcome = run_pass(inputs, self.counts, wrap or _no_wrap)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        wall = traced_wall[0] if traced_wall else time.perf_counter() - start
        if outcome is not None:
            problems = judge(outcome)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED pass {self.attempted}: {problem}", file=sys.stderr)
        return wall, outcome

    def timed(self, inputs, judge, seconds, speed=None, **kw):
        """Passes until ``seconds`` have elapsed (at least one).

        Returns ``(records, kernel_s)``; a record is ``(wall_s, outcome,
        factor)``.  With a ``HostSpeed``, the kernel is timed before the
        first pass and after each one, and ``factor`` converts the pass's
        wall time to reference seconds using the mean of the two kernel
        times around it.  Without one, ``factor`` is 1.
        """
        from perfbench import calibrate

        records = []
        kernel_s = [speed.seconds()] if speed else []
        start = time.perf_counter()
        while not records or time.perf_counter() - start < seconds:
            wall, outcome = self.run(inputs, judge, **kw)
            factor = 1.0
            if speed:
                kernel_s.append(speed.seconds())
                factor = calibrate.scale((kernel_s[-2] + kernel_s[-1]) / 2)
            records.append((wall, outcome, factor))
        return records, kernel_s


def check_default_seed(passes, golden_fps) -> None:
    """Warm caches with one pass on the default seed, judged against gold."""
    from perfbench import golden

    reference = golden_fps.get(golden.DEFAULT_SEED)
    if reference is None:
        passes.attempted += 1
        passes.failed += 1
        print(f"FAILED: no golden fingerprint for {passes.workload.name}",
              file=sys.stderr)
        return
    inputs = passes.workload.build(golden.DEFAULT_SEED)
    passes.run(inputs, golden.Judge(reference))


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall seconds of cold set-ups: interpreter start, imports, inputs."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            check=True, stdout=subprocess.DEVNULL, cwd=ROOT,
        )
        samples.append(time.perf_counter() - start)
    return samples


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child
    (a fleet worker), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ----------------------------------------------------------------------
# end-to-end run
# ----------------------------------------------------------------------
def end_to_end(passes, args, golden_fps) -> dict[str, list[float]]:
    """Samples of every end-to-end metric, untraced.

    On a calibrated workload, times are reference seconds: wall seconds
    scaled by the host-speed kernel timed around each pass
    (``calibrate.py``).  The raw wall times are kept in the samples as
    ``pass_wall_s`` and ``setup_wall_s``.
    """
    from perfbench import calibrate, golden

    speed = calibrate.HostSpeed() if passes.workload.calibrated else None
    check_default_seed(passes, golden_fps)
    inputs = passes.workload.build(args.seed)
    judge = golden.Judge(golden_fps.get(args.seed))
    records, kernel_s = passes.timed(inputs, judge, args.seconds, speed=speed)
    records = [(wall, o, factor) for wall, o, factor in records if o is not None]
    samples = {
        "pass_s": [wall * factor for wall, _, factor in records],
        "sim_ops_per_s": [o.ops / (wall * factor) for wall, o, factor in records],
        "events_per_s": [o.events / (wall * factor) for wall, o, factor in records],
        "peak_rss_mb": [peak_rss_mb()],
        "pass_wall_s": [wall for wall, _, _ in records],
    }
    if kernel_s:
        samples["kernel_s"] = kernel_s
    for key in ("val_p95_us", "coverage", "orthrus_overhead_pct", "mem_overhead_pct"):
        values = [o.virt[key] for _, o, _ in records if key in o.virt]
        if values:
            samples[f"virt.{key}"] = values
    setup_wall = measure_setup(args.workload, args.seed)
    factor = calibrate.scale(statistics.median(kernel_s)) if speed else 1.0
    samples["setup_wall_s"] = setup_wall
    samples["setup_s"] = [wall * factor for wall in setup_wall]
    return samples


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def check_self_times(passes, tracer, wall: float) -> None:
    """The layers' self times, ``unattributed`` included, must add up to
    the traced wall time."""
    accounted = sum(tracer.self_s.values())
    if abs(accounted - wall) > 1e-6 * wall:
        passes.failed += 1
        print(f"FAILED: layer self times sum to {accounted!r} s, "
              f"traced passes took {wall!r} s", file=sys.stderr)


def traced(passes, args, golden_fps) -> dict[str, float]:
    """Per-layer metrics from a traced run."""
    from perfbench import golden
    from perfbench.tracer import LAYER_NAMES, UNATTRIBUTED, LayerTracer

    check_default_seed(passes, golden_fps)
    inputs = passes.workload.build(args.seed)
    judge = golden.Judge(golden_fps.get(args.seed))
    untraced_wall, _ = passes.run(inputs, judge)

    tracer = LayerTracer()
    patches = tracer.install()
    try:
        records, _ = passes.timed(
            inputs, judge, args.seconds, wrap=tracer.wrap, root=tracer.root
        )
    finally:
        patches.undo()
    inline = None
    if passes.workload.inline_pass is not None:
        # the fanned-out pass hides its workers' layers; trace one pass
        # that runs them in this process
        inline_tracer = LayerTracer()
        patches = inline_tracer.install()
        try:
            wall, outcome = passes.run(
                inputs, judge, wrap=inline_tracer.wrap,
                run_pass=passes.workload.inline_pass, root=inline_tracer.root,
            )
        finally:
            patches.undo()
        inline = (inline_tracer, wall, outcome)

    traced_wall = sum(wall for wall, _, _ in records)
    check_self_times(passes, tracer, traced_wall)
    if inline is not None:
        check_self_times(passes, inline[0], inline[1])

    n = len(records)
    metrics: dict[str, float] = {}
    for layer in LAYER_NAMES + (UNATTRIBUTED,):
        source, wall, runs = tracer, traced_wall, n
        if inline is not None and layer in passes.workload.inline_layers:
            source, wall, runs = inline[0], inline[1], 1
        self_s = source.self_s.get(layer, 0.0)
        if layer != UNATTRIBUTED:
            metrics[f"{layer}.calls"] = source.calls.get(layer, 0) / runs
        metrics[f"{layer}.self_s"] = self_s / runs
        metrics[f"{layer}.share"] = self_s / wall
    counted = [o for _, o, _ in records if o is not None]
    if inline is not None and inline[2] is not None:
        counted = [inline[2]]
    if counted:
        metrics["sim.events"] = float(statistics.median(o.events for o in counted))
        metrics["machine.instructions"] = float(
            statistics.median(o.instructions for o in counted)
        )
    metrics["trace.overhead"] = traced_wall / n / untraced_wall
    return metrics


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def summarize(samples: dict[str, list[float]], units: dict[str, str]) -> dict:
    """Median of each metric's samples, with its unit."""
    return {
        name: {
            "value": float(statistics.median(samples[name])) if samples.get(name) else 0.0,
            "unit": unit,
        }
        for name, unit in units.items()
    }


def print_report(workload: str, samples: dict, units: dict, attempted: int,
                 failed: int, out=sys.stdout) -> None:
    """Human-readable lines: each metric by name, with unit and spread."""
    print(f"== {workload}: {attempted} passes, failed_frac "
          f"{failed / max(1, attempted):.4g}", file=out)
    for name in sorted(samples):
        values = samples[name]
        unit = units.get(name) or REPORTED_UNITS.get(name, "")
        line = f"  {name:<26} {statistics.median(values):>14.6g} {unit:<6} n={len(values)}"
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            line += f"  q1={q1:.6g} q3={q3:.6g}"
        print(line, file=out)


def run_workload(args) -> int:
    from perfbench import golden
    from perfbench.tracer import EngineCounts
    from perfbench.workloads import WORKLOADS

    spec = load_spec()
    workload = WORKLOADS[args.workload]
    counts = EngineCounts()
    patches = counts.install()
    try:
        passes = Passes(workload, counts)
        golden_fps = golden.load().get(workload.name, {})
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values = traced(passes, args, golden_fps)
            samples = {name: [value] for name, value in values.items()}
        else:
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            samples = end_to_end(passes, args, golden_fps)
    finally:
        patches.undo()
    print_report(workload.name, samples, units, passes.attempted, passes.failed)
    result = {
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": summarize(samples, units),
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints one table."""
    from perfbench.workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=True, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


def record_golden() -> int:
    """Rewrite golden.json from fresh passes on the two recorded seeds."""
    from perfbench import golden
    from perfbench.tracer import EngineCounts
    from perfbench.workloads import WORKLOADS

    counts = EngineCounts()
    patches = counts.install()
    try:
        recorded = {}
        for name, workload in WORKLOADS.items():
            for seed in (golden.DEFAULT_SEED, golden.HELD_OUT_SEED):
                outcome = workload.run_pass(workload.build(seed), counts)
                if outcome.problems:
                    raise SystemExit(f"{name} seed {seed}: {outcome.problems}")
                recorded.setdefault(name, {})[seed] = json.loads(
                    golden.canonical(outcome.fingerprint)
                )
                print(f"recorded {name} seed {seed}")
    finally:
        patches.undo()
    golden.save(recorded)
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    _bootstrap()
    from perfbench.workloads import WORKLOADS

    if args.record_golden:
        return record_golden()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)} or all")
    if args.setup_only:
        WORKLOADS[args.workload].build(args.seed)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
