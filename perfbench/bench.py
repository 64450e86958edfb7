"""The benchmark proper: set-up, the closed-loop client, the traced
passes and the metrics.  Imported by run.py once src/ is on the path."""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

import gate
import spans
import workloads
from flexicolor import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench")

MIN_REQUESTS = 100  # p90 then has at least ten samples above it
SETUP_REPEATS = 3
HARD_STOP_S = 120.0  # stop mid-pool past this, to end well within 180 s


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Client:
    """Sends requests one after another and gates each reply."""

    def __init__(self, scratch: str, tracer=None):
        self.tracer = tracer
        self.result = os.path.join(scratch, "result.txt")
        self.oracle = os.path.join(scratch, "oracle.txt")
        self.attempted = 0
        self.busy = 0.0  # CPU seconds spent inside requests, gate excluded
        self.failures = []
        self.missed = []  # completed requests below their certified bound

    def request(self, job, traced: bool = False):
        """Latency in seconds and the gate's Checked, or None on failure."""
        for path in (self.result, self.oracle):
            if os.path.exists(path):
                os.remove(path)
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        main = cli.main  # looked up per request, so a traced rebinding applies
        if self.tracer is not None:
            self.tracer.request_id = self.attempted
            self.tracer.active = traced
        crash = None
        start = spans.CLOCK()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes = [
                    main(["solve", job.doc, *job.solve_args, "--out", self.result]),
                    main(["verify", job.doc, self.result]),
                ]
                if job.oracle:
                    codes.append(main(["oracle", job.doc, "--out", self.oracle]))
        except Exception as exc:  # a crash fails this request, the run goes on
            crash = exc
        finally:
            if self.tracer is not None:
                self.tracer.active = False
        latency = spans.CLOCK() - start
        self.busy += latency
        if crash is not None:
            return self._fail(job, f"{type(crash).__name__}: {crash}")
        try:
            checked = gate.check(
                job, tuple(codes), out.getvalue(), _read(self.result), _read(self.oracle)
            )
        except (gate.GateError, KeyError, ValueError) as exc:
            return self._fail(job, f"{exc}; stderr: {err.getvalue().strip()}")
        if not checked.bound_met:
            self.missed.append(f"{job.label}: satisfied {checked.satisfied} of {checked.total}")
        return latency, checked

    def _fail(self, job, message: str):
        self.failures.append(f"{job.label}: {message}")
        return None


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return ""


def setup(name: str, seed: int, directory: str) -> tuple:
    """Generate and serialize the pool, then warm up with a solve and
    verify of the smallest document of each method.  The warm-up leaves
    out the oracle, whose time on one small document swings with the seed
    from 0.01 s to 1 s.  Returns (jobs, seconds)."""
    start = spans.CLOCK()
    shutil.rmtree(directory, ignore_errors=True)
    jobs = workloads.build(name, seed, directory)
    smallest = {}
    for job in jobs:
        key = job.solve_args
        if key not in smallest or os.path.getsize(job.doc) < os.path.getsize(smallest[key].doc):
            smallest[key] = job
    warm = Client(directory)
    for job in smallest.values():
        warm.request(dataclasses.replace(job, oracle=False))
    if warm.failures:
        raise SystemExit("warm-up failed: " + "; ".join(warm.failures))
    return jobs, spans.CLOCK() - start


def serve(client: Client, jobs: list, seconds: float) -> list:
    """Closed loop over whole passes of the pool, stopping at the pass
    boundary nearest to `seconds` once MIN_REQUESTS have been sent."""
    records = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for job in jobs:
            records.append(client.request(job))
            if time.perf_counter() - start > HARD_STOP_S:
                return records
        now = time.perf_counter()
        if len(records) >= MIN_REQUESTS and now - start + (now - pass_start) / 2 >= seconds:
            return records


def end_to_end(records: list, busy: float, setup_times: list) -> dict:
    """End-to-end metrics; throughput is per second spent in requests,
    so the client's own gate work does not count against the program."""
    done = [r for r in records if r is not None]
    if not done:
        raise SystemExit("error: every request failed")
    latencies = [lat * 1000 for lat, _ in done]
    satisfied = sum(c.satisfied for _, c in done)
    total = sum(c.total for _, c in done)
    return {
        "throughput_rps": len(done) / busy,
        "latency_p50_ms": _percentile(latencies, 50),
        "latency_p90_ms": _percentile(latencies, 90),
        "error_rate": 1 - len(done) / len(records),
        "success_rate": len(done) / len(records),
        "bound_met_rate": sum(c.bound_met for _, c in done) / len(done),
        "satisfied_share": float(satisfied / total),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "requests": len(records),
    }


def traced_passes(client: Client, jobs: list, seconds: float) -> list:
    """Alternate a plain pass and a traced pass over the pool until
    `seconds` have passed.  Returns the layer metrics of each pass pair."""
    tracer = client.tracer
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        busy = client.busy
        for job in jobs:
            client.request(job)
        plain = client.busy - busy
        first_span = len(tracer.spans)
        counts_before = dict(tracer.counts)
        with spans.instrument(tracer):
            for job in jobs:
                client.request(job, traced=True)
        timed = client.busy - busy - plain
        counts = {k: v - counts_before.get(k, 0) for k, v in tracer.counts.items()}
        passes.append(layer_metrics(tracer.self_times(first_span), counts, plain, timed))
    return passes


def layer_metrics(times: tuple, counts: dict, plain_s: float, traced_s: float) -> dict:
    calls, own, incl = times
    m = {}
    for name in calls:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_ms"] = own[name] * 1000
    parse_s = incl.get("instances.parse", 0.0)
    oracle_s = incl.get("oracle.optimal_satisfaction", 0.0)
    moves = counts.get("maxdeg.moves", 0)
    probes = calls.get("maxdeg.classify_components", 0)
    m.update({
        "instances.parse.kb_per_s":
            counts.get("instances.parse.bytes", 0) / 1024 / parse_s if parse_s else 0.0,
        "maxdeg.moves": moves,
        "maxdeg.probe_yield": moves / probes if probes else 0.0,
        "treewidth.members_scored": counts.get("treewidth.members_scored", 0),
        "oracle.enumerated": counts.get("oracle.enumerated", 0),
        "oracle.leaves_per_s": counts.get("oracle.enumerated", 0) / oracle_s if oracle_s else 0.0,
        "trace.overhead_ratio": traced_s / plain_s,
        "trace.self_sum_ratio": sum(own.values()) / plain_s,
    })
    return m


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """One benchmark run; prints the metrics and the JSON result line."""
    spec = _load_spec()
    run_dir = os.path.join(OUT, f"{workload}-{seed}-{os.getpid()}")
    try:
        if trace:
            jobs, _ = setup(workload, seed, run_dir)
            client = Client(run_dir, spans.Tracer())
            passes = traced_passes(client, jobs, seconds)
            client.tracer.dump(os.path.join(OUT, f"trace-{workload}-{seed}.tsv"))
            wanted = spec["per_layer"]
            values = {m["name"]: statistics.median(p.get(m["name"], 0) for p in passes)
                      for m in wanted}
            for m in ("maxdeg.classify_components.calls", "oracle.enumerated"):
                if len({p.get(m, 0) for p in passes}) > 1:
                    client.failures.append(f"{m} differs between passes over one pool")
        else:
            setup_times = []
            for _ in range(SETUP_REPEATS):
                jobs = None  # free the previous pool before building the next
                jobs, took = setup(workload, seed, run_dir)
                setup_times.append(took)
            client = Client(run_dir)
            records = serve(client, jobs, seconds)
            values = end_to_end(records, client.busy, setup_times)
            wanted = spec["end_to_end"]
            print(f"workload {workload} seed {seed}: "
                  f"{values['requests']} requests, {client.busy:.2f} s in requests")
            print(f"  {'error_rate':<18} {values['error_rate']:.6g} ratio")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for msg in client.failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    for msg in client.missed[:20]:
        print(f"MISSED BOUND {msg}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name:<18} {m['value']:.6g} {m['unit']}")
    failed = len(client.failures)
    print(json.dumps({
        # the seed code meets the certified bound on every request, so one
        # miss makes the run incorrect, however many requests it holds
        "correct": failed == 0 and not client.missed,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0
