"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload facility_year --seed 0 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``run_s``, ``ops_per_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer split, taken
from a traced phase that follows an untraced one in the same process.
See README.md in this directory for what each workload and metric is.
"""

from __future__ import annotations

import os

# One thread for BLAS and no REPRO_* knob: the load is this process alone,
# and every call runs the program's defaults.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("REPRO_")]:
    del os.environ[_var]

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Scratch space inside the checkout; each run uses and removes its own.
WORK = HERE / "_work"
#: Chrome traces of the traced runs' last operation.
TRACES = HERE / "traces"

#: Each phase times at least this many operations, whatever ``--seconds``.
MIN_REPS = 3
#: Fresh processes timed from start to workload ready, for ``setup_s``.
SETUP_PROBES = 3
#: A setup probe that takes longer than this has hung.
PROBE_TIMEOUT_S = 60.0
#: The host-speed kernel: steps per sample, and nanoseconds per step on
#: the reference host that every timing is scaled to.
KERNEL_STEPS = 10_000
REFERENCE_NS = 35.0
#: Wall seconds of kernel samples in each pause between operations.
PAUSE_S = 0.25

perf = time.perf_counter


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def peak_rss_mb() -> float:
    """High-water resident memory of this process, in MiB.

    ``VmHWM`` covers this process only; ``ru_maxrss`` (the fallback off
    Linux) can carry a forked parent's high-water mark across ``exec``.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024.0 * 1024.0) if sys.platform == "darwin" else rss / 1024.0


#: The kernel's operands: small ints only, so a step allocates nothing and
#: never touches the program's heap.
_KERNEL_TABLE = [(i * 167 + 13) & 255 for i in range(256)]
_KERNEL_ORDER = [(i * 31) & 255 for i in range(KERNEL_STEPS)]


def kernel_seconds() -> float:
    """Wall seconds of one pass of the fixed pure-Python host-speed kernel."""
    table, order = _KERNEL_TABLE, _KERNEL_ORDER
    acc = 0
    t0 = perf()
    for j in order:
        acc = table[acc ^ j]
    return perf() - t0


class HostSpeed:
    """How fast this host runs Python right now, against the reference.

    On a shared host the speed of one core drifts by half over seconds to
    minutes, which moves every wall time with it. In a short pause before
    and after every timed operation, outside its timed window, the host
    times a fixed kernel that allocates nothing and touches no program
    code. Wall times taken over a stretch of the run are scaled by the
    reference kernel time over the median kernel time of the pauses in
    that stretch.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def pause(self) -> None:
        """Sample the kernel for ``PAUSE_S`` seconds, with the collector off."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            end = perf() + PAUSE_S
            while True:
                t0 = perf()
                self.samples.append((t0, kernel_seconds()))
                if t0 >= end:
                    break
        finally:
            if was_enabled:
                gc.enable()

    def kernel_ns(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """Median ns per kernel step of the samples taken in ``[t0, t1]``."""
        inside = [d for s, d in self.samples if t0 <= s <= t1]
        return statistics.median(inside) / KERNEL_STEPS * 1e9

    def scale(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """Multiply a wall time taken in ``[t0, t1]`` by this for reference
        time."""
        return REFERENCE_NS / self.kernel_ns(t0, t1)


class Phase:
    """The operations of one timed phase and what their checks found."""

    def __init__(self) -> None:
        self.walls: list[float] = []  # wall seconds
        self.layers: list[dict[str, tuple[float, str]]] = []
        self.problems: list[str] = []
        self.failed = 0
        self.units = 0  # units of work in one operation

    @property
    def attempted(self) -> int:
        return len(self.walls) + self.failed

    @property
    def median(self) -> float:
        return statistics.median(self.walls)


class Run:
    """One benchmark run: a workload, its scratch space and the host speed."""

    def __init__(self, args: argparse.Namespace, work: Path):
        from workloads import WORKLOADS

        self.args = args
        self.work = work
        self.host = HostSpeed()
        self.workload = WORKLOADS[args.workload]()
        t0 = perf()
        self.workload.import_entry()
        self.eager_s = perf() - t0
        self.workload.setup(args.seed)

    def setup_s(self) -> float:
        """Median seconds from starting a fresh process to workload ready.

        The host is sampled in pauses between the probes, not during them.
        """
        args = self.args
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-probe",
        ]
        times = []
        t_first = perf()
        for _ in range(SETUP_PROBES):
            self.host.pause()
            t0 = perf()
            with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                  text=True) as proc:
                try:
                    line = proc.stdout.readline()
                    times.append(perf() - t0)
                    proc.communicate(timeout=PROBE_TIMEOUT_S)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
            if line.strip() != "ready" or proc.returncode != 0:
                raise RuntimeError(
                    f"setup probe failed (exit {proc.returncode})"
                )
        self.host.pause()
        return statistics.median(times) * self.host.scale(t_first, perf())

    def operation(self, tracer=None):
        """One operation in a fresh temporary directory; only the call is
        timed, after a collection and a host-speed pause."""
        gc.collect()
        self.host.pause()
        tmp = Path(tempfile.mkdtemp(dir=self.work))
        try:
            if tracer is not None:
                tracer.reset()
            t0 = perf()
            output = self.workload.operation(tmp)
            wall = perf() - t0
            problems, fingerprint = self.workload.check(output)
            extra = self.workload.extra_counts(output)
            return output, wall, problems, fingerprint, extra
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def phase(self, seconds: float, reference, tracer=None) -> Phase:
        """Time operations until ``seconds`` would be overrun (>= MIN_REPS)."""
        from layers import layer_metrics

        phase = Phase()
        start = perf()
        while True:
            if phase.attempted >= MIN_REPS:
                estimate = phase.median if phase.walls else 0.0
                if perf() - start + estimate > seconds:
                    break
            try:
                output, wall, problems, fingerprint, extra = (
                    self.operation(tracer)
                )
            except Exception:
                traceback.print_exc(file=sys.stderr)
                phase.failed += 1
                continue
            phase.walls.append(wall)
            phase.units = self.workload.units(output)
            phase.problems += problems
            if fingerprint != reference:
                phase.problems.append("output differs from the warm-up's")
            if tracer is not None:
                for name, value in extra.items():
                    tracer.add_count(name, value)
                phase.layers.append(layer_metrics(tracer, wall))
        self.host.pause()  # the samples after the last operation
        return phase

    def measure(self) -> dict:
        args = self.args
        if args.trace:
            return self.measure_traced()
        setup_s = self.setup_s()
        t_start = perf()
        # untimed warm-up: its fingerprint is what every operation must match
        _, _, problems, reference, _ = self.operation()
        timed = self.phase(args.seconds, reference)
        if not timed.walls:
            raise RuntimeError("every timed operation failed")
        scale = self.host.scale(t_start, perf())
        run_s = timed.median * scale
        print(
            f"{args.workload}: operations "
            + " ".join(f"{w:.3f}" for w in timed.walls)
            + f" s wall, median {timed.median:.3f} s x {scale:.4f} host "
            f"speed = {run_s:.3f} s",
            file=sys.stderr,
        )
        return result(
            problems + timed.problems, timed.attempted, timed.failed, {
                "setup_s": (setup_s, "s"),
                "run_s": (run_s, "s"),
                "ops_per_s": (timed.units / run_s, "1/s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            },
        )

    def measure_traced(self) -> dict:
        """Untraced, then traced, operations; the per-layer split in raw
        wall seconds."""
        seconds = self.args.seconds / 2
        _, warm_s, problems, reference, _ = self.operation()
        untraced = self.phase(seconds, reference)
        if not untraced.walls:
            raise RuntimeError("every timed operation failed")
        traced = self.traced_phase(seconds, reference)
        # times: median over the traced operations; counts repeat exactly
        metrics = {
            name: (
                statistics.median(rep[name][0] for rep in traced.layers)
                if unit == "s" else value,
                unit,
            )
            for name, (value, unit) in traced.layers[-1].items()
        }
        metrics.update({
            "scheduler.generate_s": (self.workload.generate_s, "s"),
            "imports.eager_s": (self.eager_s, "s"),
            "imports.lazy_s": (warm_s - untraced.median, "s"),
            "trace.overhead_s": (traced.median - untraced.median, "s"),
            "host.kernel_ns": (self.host.kernel_ns(), "ns"),
        })
        return result(
            problems + untraced.problems + traced.problems,
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
            metrics,
        )

    def traced_phase(self, seconds: float, reference) -> Phase:
        """A phase with every layer wrapped; writes its Chrome trace."""
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = self.phase(seconds, reference, tracer)
        finally:
            tracer.uninstall()
        if not traced.walls:
            raise RuntimeError("every traced operation failed")
        TRACES.mkdir(exist_ok=True)
        path = TRACES / f"{self.args.workload}-seed{self.args.seed}.trace.json"
        tracer.write_chrome_trace(
            path, f"perfbench {self.args.workload}", traced.walls[-1]
        )
        with open(path, encoding="utf-8") as fh:
            if not json.load(fh)["traceEvents"]:
                raise RuntimeError(f"empty wall-clock trace {path}")
        return traced


def result(problems: list[str], attempted: int, failed: int,
           metrics: dict[str, tuple[float, str]]) -> dict:
    """The result line; failed checks are also listed on standard error."""
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]()
        workload.import_entry()
        workload.setup(args.seed)
        print("ready", flush=True)
        return 0

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-"))
    # the program's own temporary files stay inside the checkout too
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    try:
        result = Run(args, work).measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
