"""Release-level benchmark of the frequency anonymizer.

    python3 perfbench/run.py --workload gl-release --seed 1 --seconds 20 --trace 0

Workloads: ``gl-release``, ``purel-publish`` (perfbench/workload_engine.py)
and ``serve-closed`` (perfbench/workload_serve.py); see perfbench/README.md.
Inputs are generated from ``--seed`` before any timing and cached under
``.bench_build/perfbench``. With ``--trace 0`` the run reports the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ones. Every metric is printed by name with its unit; the last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("gl-release", "purel-publish", "serve-closed")

#: Set-up probes per call of :func:`setup_times`.
SETUP_REPEATS = 4


class Outcome:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, problems: list[str]) -> None:
        """Book one operation; a non-empty ``problems`` fails it."""
        self.attempted += 1
        if problems:
            self.problems.append("; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.problems)


def tail(samples: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least ten
    samples beyond it; the largest sample when there are fewer than 21,
    as no percentile above the median then has ten beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_times(workload: str) -> list[float]:
    """Reference seconds (see speed.py) from process start to ready of
    fresh processes that import what the workload needs and build its
    method spec."""
    probe = Path(__file__).with_name("setup_probe.py")
    gauge = speed.Gauge()
    gauge.tick()
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        child = subprocess.run(
            [sys.executable, str(probe), workload],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        elapsed = time.perf_counter() - started
        if child.returncode != 0 or child.stdout.strip() != "ready":
            raise RuntimeError(f"setup probe failed: {child.stderr[-500:]}")
        gauge.tick()
        times.append(gauge.scale(elapsed)[0])
    return times


def counters_record(work: Path, tag: str) -> Path:
    """Where the traced runs of ``tag`` (workload and seed) on this
    program's source keep their deterministic counters."""
    digest = tracer.program_digest(ROOT / "src" / "repro")[:16]
    return work / f"counters-{tag}-{digest}.json"


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(parents=True, exist_ok=True)
    if hasattr(os, "sched_setaffinity"):
        # One core for the run and every process it starts (they inherit
        # it): the host kernel (speed.py) then times the core the
        # program ran on, and the serve daemon's threads hand the GIL
        # over on one core instead of waking each other across two.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    units = declared_metrics(bool(args.trace))

    if args.workload == "serve-closed":
        import workload_serve as workload
    else:
        import workload_engine as workload
    outcome = Outcome()
    try:
        values = workload.run(args, outcome, WORK)
    except tracer.MissingLayer as exc:
        print(f"perfbench: cannot trace: {exc}; update LAYERS in perfbench/tracer.py",
              file=sys.stderr)
        return 4

    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        print(
            f"perfbench: metrics disagree with BENCHMARK.json "
            f"(missing {missing}, undeclared {extra})",
            file=sys.stderr,
        )
        return 3
    for problem in outcome.problems[:20]:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    rate = outcome.failed / max(outcome.attempted, 1)
    print(f"{'failure_rate':32s} {rate:.6g} ({outcome.failed}/{outcome.attempted})")
    for name, unit in units.items():
        print(f"{name:32s} {values[name]:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
