"""Which public calls make up each layer, and the per-layer metrics.

:func:`install` wraps, on one :class:`~tracer.Tracer`, every call the
README's per-layer table names. :func:`layer_metrics` turns what the tracer
recorded over one operation into the ``per_layer`` metrics of
``BENCHMARK.json``. Layers a workload does not touch read 0.
"""

from __future__ import annotations

import sys

from tracer import Tracer

QUEUE_METHODS = (
    "push", "push_many", "pop", "pop_time_batch", "peek_time",
    "pop_until", "sorted_entries",
)


def install(tracer: Tracer) -> None:
    """Wrap the program's public calls, one layer at a time."""
    import repro.atomicio
    import repro.ml
    import repro.resilience.restart
    import repro.science
    import repro.telemetry.export
    import repro.telemetry.stream
    import repro.verify.differential
    import repro.verify.invariants
    from repro.ml.forest import DecisionTreeRegressor, RandomForestRegressor
    from repro.scheduler.simulator import Scheduler
    from repro.sim.calqueue import CalendarQueue, HeapQueue
    from repro.sim.engine import Engine
    from repro.sim.timerbank import ArrivalBank, DeadlineBank
    from repro.telemetry import ShardedJsonlSink, Telemetry
    from repro.workflows.dag import TaskGraph

    def count(name, of):
        return lambda result: tracer.add_count(name, of(result))

    tracer.wrap_attr(
        Scheduler, "run", "scheduler.run",
        on_result=count(
            "scheduler.executions",
            lambda r: len(r.start_times) + r.n_requeues,
        ),
    )
    for cls in (HeapQueue, CalendarQueue, ArrivalBank, DeadlineBank):
        for attr in QUEUE_METHODS:
            if attr in vars(cls):
                tracer.wrap_attr(cls, attr, "sim.queue", hot=True)
    for attr in ("run", "spawn", "spawn_timers"):
        tracer.wrap_attr(Engine, attr, "sim.engine")
    tracer.wrap_attr(
        repro.resilience.restart, "simulate_checkpoint_restart",
        "resilience.simulate",
        on_result=count("resilience.failures", lambda s: s.n_failures),
    )

    forest_call = count("ml.forest_calls", lambda _: 1)
    tracer.wrap_attr(RandomForestRegressor, "fit", "ml.forest_fit",
                     on_result=forest_call)
    for attr in ("predict", "predict_with_uncertainty"):
        tracer.wrap_attr(RandomForestRegressor, attr, "ml.forest_predict",
                         on_result=forest_call)
    tracer.wrap_attr(DecisionTreeRegressor, "fit", "ml.forest_fit")
    tracer.wrap_attr(DecisionTreeRegressor, "predict", "ml.forest_predict")
    for name in repro.ml.__all__:
        cls = getattr(repro.ml, name)
        if cls not in (RandomForestRegressor, DecisionTreeRegressor):
            tracer.wrap_public_methods(cls, "ml.other")

    for name in repro.science.__all__:
        obj = getattr(repro.science, name)
        if isinstance(obj, type):
            tracer.wrap_public_methods(obj, "science.solve")
        else:
            tracer.wrap_attr(
                sys.modules[obj.__module__], obj.__name__, "science.solve"
            )

    tracer.wrap_attr(TaskGraph, "execute", "workflows.execute")
    tracer.wrap_attr(repro.verify.differential, "run_differentials",
                     "verify.batteries")
    tracer.wrap_attr(repro.verify.invariants, "run_invariants",
                     "verify.batteries")

    for attr in ("begin", "end", "instant", "sample"):
        tracer.wrap_attr(Telemetry, attr, "telemetry.emit", hot=True)
    for attr in ("emit_span", "emit_instant", "emit_sample", "flush", "close"):
        tracer.wrap_attr(ShardedJsonlSink, attr, "telemetry.sink", hot=True)
    # the sink's shard writes: wall minus CPU here is time spent waiting
    tracer.wrap_attr(repro.atomicio, "atomic_write_bytes", "telemetry.write",
                     within=("telemetry.sink",))
    tracer.wrap_attr(repro.telemetry.stream, "load_shards", "telemetry.load")
    tracer.wrap_attr(repro.telemetry.export, "write_chrome_trace",
                     "telemetry.export")


def layer_metrics(
    tracer: Tracer, op_wall: float
) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) figures of one traced operation."""
    wall = tracer.self_wall
    calls = tracer.calls
    counts = tracer.counts

    def s(layer):
        return wall.get(layer, 0.0), "s"

    def n(value):
        return value, "count"

    sink_s = wall.get("telemetry.sink", 0.0) + wall.get("telemetry.write", 0.0)
    wait_s = wall.get("telemetry.write", 0.0) - tracer.cpu.get(
        "telemetry.write", 0.0
    )
    return {
        "scheduler.run_self_s": s("scheduler.run"),
        "scheduler.executions": n(counts.get("scheduler.executions", 0)),
        "sim.queue_s": s("sim.queue"),
        "sim.queue_calls": n(calls.get("sim.queue", 0)),
        "sim.engine_run_s": s("sim.engine"),
        "resilience.simulate_self_s": s("resilience.simulate"),
        "resilience.failures": n(counts.get("resilience.failures", 0)),
        "ml.forest_fit_s": s("ml.forest_fit"),
        "ml.forest_predict_s": s("ml.forest_predict"),
        "ml.forest_calls": n(counts.get("ml.forest_calls", 0)),
        "ml.other_s": s("ml.other"),
        "science.solve_s": s("science.solve"),
        "workflows.execute_s": s("workflows.execute"),
        "verify.batteries_s": s("verify.batteries"),
        "telemetry.emit_s": s("telemetry.emit"),
        "telemetry.records": n(calls.get("telemetry.emit", 0)),
        "telemetry.sink_s": (sink_s, "s"),
        "telemetry.wait_s": (wait_s, "s"),
        "telemetry.shard_bytes": (counts.get("telemetry.shard_bytes", 0), "B"),
        "telemetry.load_s": s("telemetry.load"),
        "telemetry.export_s": s("telemetry.export"),
        "telemetry.trace_bytes": (counts.get("telemetry.trace_bytes", 0), "B"),
        "trace.wrapper_s": (tracer.wrapper_s, "s"),
        # the share of the program's own time, wrappers' cost left out,
        # that some layer accounts for
        "trace.coverage_pct": (
            100.0 * sum(wall.values()) / (op_wall - tracer.wrapper_s), "%"
        ),
    }
