"""The two engine workloads: one release per operation, in this process.

* ``gl-release`` — CSV in, anonymized CSV + report JSON out, through the
  calls ``repro anonymize`` makes (serial engine, the CLI default).
* ``purel-publish`` — one PureL release of a fleet through the calls
  ``repro publish`` makes (4 chunks, ``publish_workers=1``, CSV rows
  streamed to a file by ``byte_sink``, then the report JSON).

A seed has eight fleets. The run releases the first once to warm up,
then releases them in rounds of one release per fleet; times are in
reference seconds (speed.py) and a round's time is its mean per release.

Every release is checked: the output digest repeats for the fleet, the
report's ``epsilon_total`` is the declared epsilon, nothing is left
unrealised, and the output carries exactly the input's object ids.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import time
from pathlib import Path

import fleet
import speed
import tracer as tracing
from run import ROOT, counters_record, setup_times, tail

MODELS = {"gl-release": "gl", "purel-publish": "purel"}
EPSILON = 1.0
CHUNKS = 4
#: Fewest rounds (one release of each fleet) measured per run, and per
#: phase of a traced run.
MIN_ROUNDS = 2
#: The defaults of ``repro anonymize``/``publish``'s method flags.
CLI_FLAGS = {
    "epsilon": EPSILON,
    "signature_size": 10,
    "index_backend": "hierarchical",
    "search_strategy": "bottom_up_down",
}


def cli_spec(model: str, seed: int):
    """The MethodSpec ``repro anonymize --model MODEL --seed SEED`` builds."""
    from repro.api import MethodSpec, method_info

    accepted = set(method_info(model).signature.parameters)
    flags = {**CLI_FLAGS, "seed": seed}
    return MethodSpec(
        model, {name: value for name, value in flags.items() if name in accepted}
    )


def gl_release(spec, source: Path, out: Path, span) -> dict:
    from repro.api import run
    from repro.data.registry import load_dataset
    from repro.trajectory.io import write_csv

    dataset = load_dataset(source)
    result = run(spec, dataset, engine="serial", workers=0, global_workers=1)
    write_csv(result.dataset, out)
    report = result.report.to_dict()
    with span("io.write"), open(f"{out}.report.json", "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return report


def purel_publish(spec, source: Path, out: Path, span, chunk_size: int) -> dict:
    from repro.api import publish
    from repro.trajectory.io import CSV_HEADER

    staging = Path(f"{out}.tmp")
    with open(staging, "wb") as handle:
        header = io.StringIO(newline="")
        csv.writer(header).writerow(CSV_HEADER)
        handle.write(header.getvalue().encode("utf-8"))

        def byte_sink(rows, _report):
            with span("io.write"):
                handle.write(rows)

        report = publish(
            spec,
            source,
            chunk_size=chunk_size,
            engine="serial",
            workers=0,
            global_workers=1,
            publish_workers=1,
            spill_dir=out.parent / "spill",
            byte_sink=byte_sink,
        ).to_dict()
    with span("io.write"), open(f"{out}.report.json", "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    os.replace(staging, out)
    return report


def object_ids(path: Path) -> list[str]:
    """Distinct object ids of a planar CSV, in order of appearance."""
    with open(path, newline="") as handle:
        rows = csv.reader(handle)
        next(rows)
        return list(dict.fromkeys(row[0] for row in rows))


def problems_of(report: dict, out: Path, expected_ids, digests: list) -> list[str]:
    found = []
    if not math.isclose(report["epsilon_total"], EPSILON, rel_tol=1e-12):
        found.append(f"epsilon_total {report['epsilon_total']} != {EPSILON}")
    if "chunks" in report:
        unrealised = sum(chunk["unrealised"] for chunk in report["chunks"])
    else:
        unrealised = sum(
            (report[stage] or {}).get("unrealised", 0) for stage in ("global", "local")
        )
    if unrealised:
        found.append(f"{unrealised} frequency changes unrealised")
    if object_ids(out) != expected_ids:
        found.append("output object ids differ from the input's")
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    if digests and digest != digests[0]:
        found.append(f"output digest {digest[:12]} != {digests[0][:12]}")
    digests.append(digest)
    return found


def run(args, outcome, work: Path) -> dict[str, float]:
    sources = fleet.fleet_csvs("release", args.seed, ROOT, work)
    out_dir = work / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, outcome, sources, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


class Release:
    """The release of one fleet, and the checks of its output."""

    def __init__(self, workload: str, spec, source: Path, out: Path) -> None:
        self.workload = workload
        self.spec = spec
        self.source = source
        self.out = out
        self.expected_ids = object_ids(source)
        self.chunk_size = math.ceil(len(self.expected_ids) / CHUNKS)
        self.digests: list[str] = []

    def __call__(self, span) -> dict:
        if self.workload == "gl-release":
            return gl_release(self.spec, self.source, self.out, span)
        return purel_publish(self.spec, self.source, self.out, span, self.chunk_size)

    def problems(self, report: dict) -> list[str]:
        return problems_of(report, self.out, self.expected_ids, self.digests)


class Timings:
    """Reference seconds (speed.py) per release: each round's mean, and
    every release's own, with the raw wall seconds beside them."""

    def __init__(self) -> None:
        self.rounds: list[float] = []
        self.round_cpus: list[float] = []
        self.releases: list[float] = []
        self.raw: list[float] = []


def _measure(args, outcome, sources: list[Path], out_dir: Path) -> dict[str, float]:
    # Each fleet gets its own method seed, as it has its own generator
    # seed, so that the fleets' costs vary independently and their mean
    # is steadier than one fleet's.
    fleets = [
        Release(
            args.workload,
            cli_spec(MODELS[args.workload], args.seed * len(sources) + part),
            source,
            out_dir / f"anonymized-{part}.csv",
        )
        for part, source in enumerate(sources)
    ]
    # Warm-up: one untimed, checked release, so that lazy imports and
    # first-call set-up are done before any timing. The peak memory is
    # read after it, before the host kernel (speed.py) has run in this
    # process, so that it is the program's alone; the fleets all have
    # one shape, so one release stands for each.
    outcome.check(fleets[0].problems(fleets[0](tracing.no_span)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [] if args.trace else setup_times(args.workload)

    def measure(seconds: float, span=tracing.no_span, after=None) -> Timings:
        """Rounds of one release of each fleet, for ``seconds``."""
        timings = Timings()
        gauge = speed.Gauge()
        gauge.tick()
        deadline = time.perf_counter() + seconds
        while len(timings.rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
            walls, cpus = [], []
            for release in fleets:
                cpu0, wall0 = time.process_time(), time.perf_counter()
                with span("release"):
                    report = release(span)
                wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
                gauge.tick()
                scaled_wall, scaled_cpu = gauge.scale(wall, cpu)
                walls.append(scaled_wall)
                cpus.append(scaled_cpu)
                timings.raw.append(wall)
                outcome.check(release.problems(report))
            if after is not None:
                after()
            timings.releases += walls
            timings.rounds.append(statistics.fmean(walls))
            timings.round_cpus.append(statistics.fmean(cpus))
        print(f"host kernel (s): {' '.join(f'{t:.3f}' for t in gauge.wall)}")
        return timings

    if not args.trace:
        timings = measure(args.seconds)
        # Probe on both sides of the measurement, so that one slow spell
        # of the host does not set the median alone.
        setups += setup_times(args.workload)
        value, percentile = tail(timings.releases)
        print(f"raw release walls (s): {' '.join(f'{t:.3f}' for t in timings.raw)}")
        print(f"scaled rounds (s): {' '.join(f'{t:.3f}' for t in timings.rounds)}")
        print(f"tail: {value:.4g} s at p{percentile:.4g} of {len(timings.releases)} releases")
        release_s = statistics.median(timings.rounds)
        return {
            "setup_s": statistics.median(setups),
            "release_s": release_s,
            "release_cpu_s": statistics.median(timings.round_cpus),
            "releases_per_s": 1.0 / release_s,
            "peak_rss_mb": peak_rss_mb,
        }
    return _traced(args, outcome, measure, out_dir, len(fleets))


def _traced(args, outcome, measure, out_dir: Path, fleets: int) -> dict[str, float]:
    """Half the time untraced, half traced: layer metrics, the trace
    file, the tracing overhead and the counter self-test."""
    plain = measure(args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    rounds = []
    try:
        traced = measure(
            args.seconds / 2,
            span=tracer.span,
            after=lambda: rounds.append(tracer.take()),
        )
    finally:
        tracer.uninstall()
    per_round = [
        tracing.layer_metrics(spans, counters, root="release", releases=fleets)
        for spans, counters in rounds
    ]
    metrics = {
        name: statistics.median(values[name] for values in per_round)
        for name in per_round[0]
    }
    metrics.update({name: per_round[0][name] for name in tracing.COUNTS})
    tag = f"{args.workload}-seed{args.seed}"
    outcome.check(
        tracing.self_test(
            counters_record(out_dir.parent, tag),
            [counters for _, counters in rounds],
        )
    )
    trace_path = out_dir.parent / f"trace-{tag}.json"
    tracing.write_chrome_trace(trace_path, {args.workload: rounds[0][0]})
    print(f"trace: {trace_path}")
    value, percentile = tail(plain.releases)
    metrics.update(
        {
            "trace.overhead_ratio": (
                statistics.median(traced.rounds) / statistics.median(plain.rounds) - 1.0
            ),
            "release.samples": len(plain.releases),
            "release.tail_s": value,
            "release.tail_percentile": percentile,
            **_serve_placeholders(),
        }
    )
    return metrics


def _serve_placeholders() -> dict[str, float]:
    """The serve layers do no work in an engine workload."""
    return {
        "serve.submit_s": 0.0,
        "serve.queue_wait_s": 0.0,
        "serve.job_run_s": 0.0,
        "serve.result_stream_s": 0.0,
        "serve.poll_requests": 0,
        "serve.refused": 0,
    }
