"""serve-closed: two tenants in a closed loop against ``repro serve``.

The daemon runs as its own process (``--executor serial --workers 1
--job-workers 2``). The load comes in rounds: in each, two client
threads, one per tenant, each submit a GL job on one of the seed's
small fleets, poll it until it settles and stream the result CSV; the
next round starts when both have their result, after the host kernel
(speed.py) has timed the host's speed with the daemon idle. Every
fourth interaction of a tenant also reads its budget. Each streamed CSV
must equal, byte for byte, an in-process ``repro.api.run(...,
engine="batch")`` of the same spec and seed, and each job must be
charged exactly its epsilon.

Run as a script, this module is the traced daemon: it wraps repro's
layers, runs ``repro serve`` with the given arguments and, once the
daemon has shut down, writes its spans to the ``--spans`` file.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

import fleet
import speed
import tracer as tracing
from run import ROOT, counters_record, tail

EPSILON = 1.0
CLIENTS = ("alpha", "beta")
POLL_SECONDS = 0.02
BUDGET = 1e9
#: Daemon launches behind the ``setup_s`` median (the last one serves).
LAUNCHES = 5
DAEMON_ARGS = ("--executor", "serial", "--workers", "1", "--job-workers", "2")
#: Daemon-only spans: a job's execution is the release root.
DAEMON_LAYERS = [
    ("repro.serve.jobs", "JobRunner._execute", "release", None),
    ("repro.serve.budget", "BudgetStore.reserve", "serve.budget_reserve", None),
    ("repro.serve.budget", "BudgetStore.commit", "serve.budget_commit", None),
]


def request(base: str, method: str, path: str, payload=None):
    """``(status, body)`` of one HTTP request on a fresh connection."""
    url = urlsplit(base)
    connection = http.client.HTTPConnection(url.hostname, url.port, timeout=60)
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(
            method, path, body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class Daemon:
    """One ``repro serve`` process with private budget and spool dirs."""

    def __init__(self, home: Path, spans: Path | None = None) -> None:
        home.mkdir(parents=True)
        command = [sys.executable]
        if spans is not None:
            command += [str(Path(__file__)), "--spans", str(spans), "--"]
        else:
            command += ["-m", "repro.cli"]
        command += [
            "serve", "--port", "0",
            "--budget-root", str(home / "budgets"),
            "--spool", str(home / "spool"),
            *DAEMON_ARGS,
        ]
        for tenant in CLIENTS:
            command += ["--tenant", f"{tenant}={BUDGET:g}"]
        self.log = home / "daemon.log"
        started = time.perf_counter()
        with open(self.log, "w") as log:
            self.process = subprocess.Popen(
                command,
                cwd=ROOT,
                env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        self.base = self._wait_ready(deadline=started + 60)
        self.setup_s = time.perf_counter() - started

    def _wait_ready(self, deadline: float) -> str:
        base = None
        while time.perf_counter() < deadline and self.process.poll() is None:
            if base is None:
                found = re.search(r"serving on (http://\S+)\n", self.log.read_text())
                base = found and found.group(1)
            if base is not None:
                try:
                    if request(base, "GET", "/v1/health")[0] == 200:
                        return base
                except OSError:
                    pass
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"daemon never became ready: {self.log.read_text()[-800:]}")

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024

    def stop(self) -> None:
        """Shut down over HTTP (draining jobs); kill if that fails."""
        if self.process.poll() is None:
            try:
                request(self.base, "POST", "/v1/shutdown", {})
                self.process.wait(timeout=60)
            except (OSError, AttributeError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()


def references(jobs: list[tuple[Path, int]]) -> list[bytes]:
    """Each job's expected CSV bytes, from the in-process batch engine."""
    from repro.api import run
    from repro.data.registry import load_dataset
    from repro.trajectory.io import write_csv

    expected = []
    for source, seed in jobs:
        result = run(
            job_spec(seed), load_dataset(source), engine="batch", workers=1,
            executor="serial",
        )
        path = source.parent / f"reference-{os.getpid()}.csv"
        write_csv(result.dataset, path)
        expected.append(path.read_bytes())
        path.unlink()
    return expected


def job_spec(seed: int) -> dict:
    return {"kind": "gl", "params": {"epsilon": EPSILON, "seed": seed}}


class Loop:
    """The closed loop of every client against one daemon, in rounds:
    each client runs one interaction at once, and the host kernel
    (speed.py) runs between rounds while the daemon is idle."""

    def __init__(self, daemon: Daemon, jobs, expected, outcome, span):
        self.daemon = daemon
        self.jobs = jobs
        self.expected = expected
        self.outcome = outcome
        self.span = span
        self.lock = threading.Lock()
        self.samples: list[dict] = []
        #: Per pair of jobs that share a round: each such round's daemon
        #: CPU reference seconds per job, and jobs per reference second.
        self.round_cpus: dict[int, list[float]] = {}
        self.round_rates: dict[int, list[float]] = {}
        self.refused = 0

    def run(self, seconds: float | None = None) -> None:
        """Run rounds for ``seconds`` or, given None, until the clients
        between them have run each job exactly once (a fixed job set, so
        the daemon's counters repeat)."""
        if seconds is None:
            deadline, rounds = math.inf, len(self.jobs) // len(CLIENTS)
        else:
            deadline, rounds = time.perf_counter() + seconds, math.inf
        gauge = speed.Gauge()
        gauge.tick()
        turn = 0
        while turn < rounds and time.perf_counter() < deadline:
            done: list[dict] = []
            cpu0, wall0 = self.daemon.cpu_seconds(), time.perf_counter()
            threads = [
                threading.Thread(
                    target=self._client,
                    args=(tenant, (i + turn * len(CLIENTS)) % len(self.jobs), turn, done),
                )
                for i, tenant in enumerate(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - wall0
            cpu = self.daemon.cpu_seconds() - cpu0
            gauge.tick()
            for sample in done:
                sample["scaled"] = gauge.scale(sample["latency"])[0]
            self.samples += done
            scaled_wall, scaled_cpu = gauge.scale(wall, cpu)
            pair = turn % (len(self.jobs) // len(CLIENTS))
            self.round_cpus.setdefault(pair, []).append(scaled_cpu / len(CLIENTS))
            self.round_rates.setdefault(pair, []).append(len(done) / scaled_wall)
            turn += 1

    def _client(self, tenant: str, job: int, turn: int, done: list[dict]) -> None:
        try:
            sample, problems = self._interact(tenant, job, turn)
        except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
            sample, problems = {"refused": 0}, [f"{type(exc).__name__}: {exc}"]
        with self.lock:
            self.outcome.check(problems)
            self.refused += sample["refused"]
            if not problems:
                done.append({**sample, "job": job})

    def _interact(self, tenant: str, index: int, turn: int):
        base, span = self.daemon.base, self.span
        source, seed = self.jobs[index]
        sample = {"polls": 0, "refused": 0}
        started = time.perf_counter()
        with span("serve.submit"):
            status, body = request(
                base, "POST", "/v1/jobs",
                {"tenant": tenant, "dataset": str(source), "spec": job_spec(seed)},
            )
        submitted = time.perf_counter()
        if status != 202:
            sample["refused"] = int(status == 429)
            return sample, [f"submit answered {status}: {body[:200]!r}"]
        job = json.loads(body)
        while True:
            time.sleep(POLL_SECONDS)
            with span("serve.poll"):
                status, body = request(base, "GET", f"/v1/jobs/{job['id']}")
            sample["polls"] += 1
            job = json.loads(body)
            if status != 200 or job["state"] in ("done", "failed"):
                break
            if time.perf_counter() - started > 60:
                return sample, [f"{job['id']} still {job['state']} after 60 s"]
        settled = time.perf_counter()
        with span("serve.result"):
            status, result = request(base, "GET", f"/v1/jobs/{job['id']}/result")
        finished = time.perf_counter()
        problems = []
        if job.get("state") != "done" or status != 200:
            problems.append(f"{job.get('id')} ended {job.get('state')}: {job.get('error')}")
        elif result != self.expected[index]:
            problems.append(f"{job['id']} result differs from the batch engine")
        if job.get("eps_charged") != EPSILON:
            problems.append(f"{job.get('id')} charged {job.get('eps_charged')}")
        if turn % 4 == 3:
            with span("serve.tenant"):
                status, body = request(base, "GET", f"/v1/tenants/{tenant}")
            if status != 200 or "remaining" not in json.loads(body):
                problems.append(f"tenant status answered {status}")
        sample.update(
            latency=finished - started,
            submit=submitted - started,
            job_run=job.get("seconds", 0.0),
            queue_wait=max(settled - submitted - job.get("seconds", 0.0), 0.0),
            stream=finished - settled,
        )
        return sample, problems


def run(args, outcome, work: Path) -> dict[str, float]:
    sources = fleet.fleet_csvs("serve", args.seed, ROOT, work)
    jobs = [(source, args.seed * 1000 + i) for i, source in enumerate(sources)]
    expected = references(jobs)
    home = work / f"serve-{os.getpid()}"
    try:
        if args.trace:
            return _traced(args, outcome, jobs, expected, home)
        return _measure(args, outcome, jobs, expected, home)
    finally:
        shutil.rmtree(home, ignore_errors=True)


def balanced(groups: dict[int, list[float]]) -> float:
    """The mean of the groups' medians: every job (or pair of jobs)
    weighs the same, however many times a run got to repeat it."""
    return statistics.fmean(statistics.median(values) for values in groups.values())


def _measure(args, outcome, jobs, expected, home: Path) -> dict[str, float]:
    setups = []
    gauge = speed.Gauge()
    gauge.tick()
    for launch in range(LAUNCHES):
        daemon = Daemon(home / f"daemon-{launch}")
        if launch < LAUNCHES - 1:
            daemon.stop()
        gauge.tick()
        setups.append(gauge.scale(daemon.setup_s)[0])
    try:
        loop = Loop(daemon, jobs, expected, outcome, tracing.no_span)
        loop.run(args.seconds)
        peak = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    latencies = [sample["scaled"] for sample in loop.samples]
    by_job: dict[int, list[float]] = {}
    for sample in loop.samples:
        by_job.setdefault(sample["job"], []).append(sample["scaled"])
    value, percentile = tail(latencies)
    raw = " ".join(f"{sample['latency']:.3f}" for sample in loop.samples)
    print(f"raw latencies (s): {raw}")
    print(f"tail: {value:.4g} s at p{percentile:.4g} of {len(latencies)} requests")
    return {
        "setup_s": statistics.median(setups),
        "release_s": balanced(by_job),
        "release_cpu_s": balanced(loop.round_cpus),
        "releases_per_s": balanced(loop.round_rates),
        "peak_rss_mb": peak,
    }


def _traced(args, outcome, jobs, expected, home: Path) -> dict[str, float]:
    """An untraced daemon for ``--seconds``, then a traced one that runs
    each job exactly once: layer metrics, the trace file, the tracing
    overhead and the counter self-test."""
    # Fail before any daemon starts if a layer is gone from the program.
    probe = tracing.Tracer()
    probe.install(tracing.LAYERS + DAEMON_LAYERS)
    probe.uninstall()
    plain = Daemon(home / "plain")
    try:
        untraced = Loop(plain, jobs, expected, outcome, tracing.no_span)
        untraced.run(args.seconds)
    finally:
        plain.stop()
    spans_file = home / "daemon-spans.json"
    client = tracing.Tracer()
    daemon = Daemon(home / "traced", spans=spans_file)
    try:
        loop = Loop(daemon, jobs, expected, outcome, client.span)
        loop.run()
    finally:
        daemon.stop()
    daemon_spans, counters = tracing.load_spans(spans_file)
    metrics = tracing.layer_metrics(daemon_spans, counters, "release", len(jobs))
    outcome.check(
        tracing.self_test(
            counters_record(home.parent, f"serve-closed-seed{args.seed}"), [counters]
        )
    )
    client_spans, _ = client.take()
    trace_path = home.parent / f"trace-serve-closed-seed{args.seed}.json"
    tracing.write_chrome_trace(
        trace_path, {"benchmark clients": client_spans, "repro serve": daemon_spans}
    )
    print(f"trace: {trace_path}")

    def median_of(samples, key):
        return statistics.median(sample[key] for sample in samples) if samples else 0.0

    plain_latency = median_of(untraced.samples, "scaled")
    samples = loop.samples
    value, percentile = tail([sample["scaled"] for sample in untraced.samples] or [0.0])
    metrics.update(
        {
            "serve.submit_s": median_of(samples, "submit"),
            "serve.queue_wait_s": median_of(samples, "queue_wait"),
            "serve.job_run_s": median_of(samples, "job_run"),
            "serve.result_stream_s": median_of(samples, "stream"),
            "serve.poll_requests": sum(s["polls"] for s in samples) / max(len(samples), 1),
            "serve.refused": loop.refused,
            "trace.overhead_ratio": (
                median_of(samples, "scaled") / plain_latency - 1.0 if plain_latency else 0.0
            ),
            "release.samples": len(untraced.samples),
            "release.tail_s": value,
            "release.tail_percentile": percentile,
        }
    )
    return metrics


def _serve_traced(argv: list[str]) -> int:
    """Entry of the traced daemon: ``--spans FILE -- serve ...``."""
    spans_file = argv[1]
    sys.path.insert(0, str(ROOT / "src"))
    from repro.cli import main

    tracer = tracing.Tracer()
    tracer.install(tracing.LAYERS + DAEMON_LAYERS)
    try:
        return main(argv[3:])
    finally:
        tracer.uninstall()
        tracing.dump_spans(tracer, spans_file)


if __name__ == "__main__":
    sys.exit(_serve_traced(sys.argv[1:]))
