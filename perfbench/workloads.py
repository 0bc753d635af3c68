"""The four benchmark workloads and the checks made on every operation.

Each workload imports its entry modules in :meth:`import_entry`, makes its
inputs from the seed in :meth:`setup`, and runs one operation per call of
:meth:`operation`. :meth:`check` judges an operation's output from outside
the program and returns a list of problems (empty when correct) plus a
fingerprint; every operation of a run must give the warm-up's fingerprint.

Every operation calls the program's public API with default arguments, so a
change of default shows up in the figures.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path
from typing import Any

N_NODES = 4608
DAY = 86400.0
#: Default node MTBF of the program (five years), used by the checks.
NODE_MTBF_S = 5 * 365 * DAY
#: Ensemble mean overhead may sit this far (relative) from Young/Daly.
YOUNG_DALY_REL_TOL = 0.15
#: Failure count may sit this many standard deviations from its mean.
POISSON_SIGMAS = 5.0


class Workload:
    """One named workload; subclasses fill in the four steps."""

    name = ""
    #: What one unit of work is, for ``ops_per_s``.
    unit = ""
    #: Seconds spent generating inputs in :meth:`setup` (0 if none).
    generate_s = 0.0

    def import_entry(self) -> None:
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def operation(self, tmp: Path) -> Any:
        raise NotImplementedError

    def units(self, output: Any) -> int:
        raise NotImplementedError

    def check(self, output: Any) -> tuple[list[str], Any]:
        raise NotImplementedError

    def extra_counts(self, output: Any) -> dict[str, float]:
        """Byte counts of files the operation wrote, for the traced run."""
        return {}


#: Seed of the job stream both scheduler workloads replay. ``--seed`` picks
#: the fault draws or the month instead: streams of other seeds differ in
#: size (80-88k jobs a year, 12-17k in a 30-day stream), which moved the
#: replay time across seeds by more than the bounds allow.
STREAM_SEED = 0


def _year_stream():
    """The seeded year stream, and the seconds it took to generate."""
    from repro.scheduler.jobs import synthetic_facility_year

    t0 = time.perf_counter()
    jobs = synthetic_facility_year(
        seed=STREAM_SEED, n_nodes=N_NODES, horizon=365 * DAY
    )
    return jobs, time.perf_counter() - t0


class FacilityYear(Workload):
    """A year of Summit-scale operation with hourly-checkpointing jobs;
    ``--seed`` seeds the node failures."""

    name = "facility_year"
    unit = "jobs"

    def import_entry(self) -> None:
        import repro.scheduler  # noqa: F401
        import repro.scheduler.jobs  # noqa: F401

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.jobs, self.generate_s = _year_stream()

    def operation(self, tmp: Path):
        from repro.scheduler import FaultModel, Scheduler

        faults = FaultModel(checkpoint_interval=3600.0, seed=self.seed)
        return Scheduler(N_NODES).run(self.jobs, faults=faults)

    def units(self, output) -> int:
        return len(self.jobs)

    def check(self, result) -> tuple[list[str], Any]:
        problems = []
        early = [
            j.job_id for j in self.jobs
            if result.start_times[j.job_id] < j.submit_time
        ]
        if early:
            problems.append(f"{len(early)} jobs start before submission")
        peak = _peak_nodes(self.jobs, result)
        if peak > N_NODES:
            problems.append(f"{peak} nodes in use at once (> {N_NODES})")
        # failures strike executed node-seconds as a Poisson process
        executed = (result.delivered_node_hours + result.lost_node_hours) * 3600
        mean = executed / NODE_MTBF_S
        if abs(result.n_failures - mean) > POISSON_SIGMAS * math.sqrt(mean) + 1:
            problems.append(
                f"{result.n_failures} failures, expected {mean:.1f} "
                f"+- {POISSON_SIGMAS:g} sd"
            )
        return problems, result


def _peak_nodes(jobs, result) -> int:
    """Most nodes in use at once, swept over the returned start/end times.

    A job whose end is exactly start + duration ran uninterrupted, so it
    holds its nodes over ``[start, end)``. A job that failed ran over an
    unknown set of executions inside that interval; it is counted only at
    its first start, when it certainly held its nodes. The sweep is then a
    lower bound on occupancy and never reports a false excess.
    """
    events = []
    for job in jobs:
        start = result.start_times[job.job_id]
        end = result.end_times[job.job_id]
        if end == start + job.duration:
            events.append((start, 1, job.nodes))
            events.append((end, 0, -job.nodes))
        else:
            events.append((start, 1, job.nodes))
            events.append((start, 2, -job.nodes))
    # at one instant: releases first, then starts, then the point samples
    events.sort()
    busy = peak = 0
    for _, _, delta in events:
        busy += delta
        peak = max(peak, busy)
    return peak


class RestartEnsemble(Workload):
    """Eight checkpoint-restart replicas of the Kurth climate job."""

    name = "restart_ensemble"
    unit = "replicas"

    def import_entry(self) -> None:
        import repro.apps.extreme_scale  # noqa: F401

    def setup(self, seed: int) -> None:
        from repro.apps.extreme_scale import get_app

        self.seed = seed
        self.app = get_app("kurth")

    def operation(self, tmp: Path):
        return self.app.resilience_ensemble(seed=self.seed, n_jobs=1)

    def units(self, output) -> int:
        return len(output)

    def check(self, ensemble) -> tuple[list[str], Any]:
        problems = []
        for i, s in enumerate(ensemble):
            parts = (
                s.work_seconds + s.checkpoint_seconds + s.lost_seconds
                + s.restart_seconds
            )
            if not math.isclose(s.wall_seconds, parts, rel_tol=1e-9):
                problems.append(
                    f"replica {i}: wall {s.wall_seconds!r} != parts {parts!r}"
                )
        expected = young_daly_overhead(ensemble[0], self.app.peak_nodes)
        mean = sum(s.overhead_fraction for s in ensemble) / len(ensemble)
        if abs(mean - expected) > YOUNG_DALY_REL_TOL * expected:
            problems.append(
                f"mean overhead {mean:.5f} vs Young/Daly {expected:.5f}"
            )
        return problems, ensemble


def young_daly_overhead(stats, n_nodes: int) -> float:
    """First-order checkpoint + rework overhead at Young's interval.

    The write time is read off the replica (committed write seconds per
    write); the job MTBF is the node MTBF over the job's width; Young's
    interval is sqrt(2 * write * MTBF). Overhead is write/interval plus
    (interval/2 + write)/MTBF.
    """
    write = stats.checkpoint_seconds / stats.n_checkpoints
    mtbf = NODE_MTBF_S / n_nodes
    interval = math.sqrt(2.0 * write * mtbf)
    return write / interval + (interval / 2.0 + write) / mtbf


class Verify(Workload):
    """The full Summit conformance battery at its fixed seed 0."""

    name = "verify"
    unit = "checks"

    def import_entry(self) -> None:
        import repro.verify.report  # noqa: F401

    def setup(self, seed: int) -> None:
        # the battery runs at seed 0 only (see README): --seed is unused
        from repro.verify.expectations import build_registry

        self.tolerances = {
            e.key: (e.rel_tol, e.abs_tol) for e in build_registry()
        }

    def operation(self, tmp: Path):
        from repro.verify.report import run_conformance

        return run_conformance(seed=0)

    def units(self, report) -> int:
        return (
            len(report.expectations) + len(report.differentials)
            + len(report.invariants)
        )

    def check(self, report) -> tuple[list[str], Any]:
        payload = report.to_dict()
        problems = []
        if len(payload["expectations"]) != len(self.tolerances):
            problems.append(
                f"{len(payload['expectations'])} expectations reported, "
                f"registry has {len(self.tolerances)}"
            )
        for rec in payload["expectations"]:
            rel_tol, abs_tol = self.tolerances[rec["key"]]
            if not _judge(rec["cmp"], rec["expected"], rec["measured"],
                          rel_tol, abs_tol):
                problems.append(
                    f"{rec['key']}: measured {rec['measured']!r} vs paper "
                    f"{rec['cmp']} {rec['expected']!r}"
                )
        for rec in payload["differentials"] + payload["invariants"]:
            if not rec["passed"]:
                problems.append(f"{rec['key']}: {rec['detail']}")
        return problems, report.to_json()


def _judge(cmp: str, expected, measured, rel_tol, abs_tol) -> bool:
    """Re-judge one expectation from its reported paper and measured values."""
    if cmp == "true":
        return measured is True
    if cmp == "exact":
        return measured == expected
    m, e = float(measured), float(expected)
    if cmp == "approx":
        rel = abs(m - e) / abs(e) if e != 0 else abs(m)
        return (rel_tol is not None and rel <= rel_tol) or (
            abs_tol is not None and abs(m - e) <= abs_tol
        )
    return {"gt": m > e, "ge": m >= e, "lt": m < e, "le": m <= e}[cmp]


class TracedMonth(Workload):
    """A 30-day window of the year, replayed into telemetry shards, stitched
    and exported; ``--seed`` picks which of the year's twelve windows."""

    name = "traced_month"
    unit = "spans"

    def import_entry(self) -> None:
        import repro.scheduler  # noqa: F401
        import repro.scheduler.jobs  # noqa: F401
        import repro.telemetry  # noqa: F401

    def setup(self, seed: int) -> None:
        year, self.generate_s = _year_stream()
        start = (seed % 12) * 30 * DAY
        self.jobs = [
            j for j in year if start <= j.submit_time < start + 30 * DAY
        ]

    def operation(self, tmp: Path):
        from repro.scheduler import Scheduler
        from repro.telemetry import (
            ShardedJsonlSink,
            Telemetry,
            load_shards,
            write_chrome_trace,
        )

        shards = tmp / "shards"
        telemetry = Telemetry(sink=ShardedJsonlSink(shards))
        result = Scheduler(N_NODES).run(self.jobs, telemetry=telemetry)
        telemetry.close()
        stitched = load_shards(shards)
        trace = tmp / "month.trace.json"
        write_chrome_trace(stitched, str(trace))
        return result, len(stitched.spans), shards, trace

    def units(self, output) -> int:
        return output[1]

    def extra_counts(self, output) -> dict[str, float]:
        _, _, shards, trace = output
        return {
            "telemetry.shard_bytes": sum(
                p.stat().st_size for p in shards.iterdir()
            ),
            "telemetry.trace_bytes": trace.stat().st_size,
        }

    def check(self, output) -> tuple[list[str], Any]:
        result, _, _, trace = output
        data = trace.read_bytes()
        try:
            events = json.loads(data)["traceEvents"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"trace does not parse as Chrome JSON: {exc}"], None
        problems = []
        last_end: dict[str, float] = {}
        n_job_spans = 0
        for ev in events:
            if ev.get("ph") == "X" and ev.get("cat") == "job":
                n_job_spans += 1
                end = ev["ts"] + ev["dur"]
                if end > last_end.get(ev["name"], -math.inf):
                    last_end[ev["name"]] = end
            elif ev.get("ph") == "C" and ev.get("name") == "machine.busy_nodes":
                busy = ev["args"]["in_use"]
                if not 0 <= busy <= N_NODES:
                    problems.append(f"busy-node counter reads {busy}")
                    break
        executions = len(result.start_times) + result.n_requeues
        if n_job_spans != executions:
            problems.append(
                f"{n_job_spans} job spans for {executions} executions"
            )
        late = [
            job_id for job_id, end in result.end_times.items()
            if not math.isclose(
                last_end.get(job_id, math.nan), end * 1e6, rel_tol=1e-12
            )
        ]
        if late:
            problems.append(
                f"{len(late)} jobs' last span does not end at end_times "
                f"(first: {late[0]})"
            )
        return problems, hashlib.sha256(data).hexdigest()


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (FacilityYear, RestartEnsemble, Verify, TracedMonth)
}
