"""Wall-clock layer tracer that wraps the program's public calls from outside.

The program carries no wall-clock instrumentation of its own, so the traced
run replaces selected public functions and methods with thin wrappers that
time each call. Every wrapper belongs to a *layer*; a layer's self time is
the time its calls took minus the time spent in wrapped calls nested inside
them, so the self times of all layers, the wrappers' own cost (below) and
the untraced remainder add up to the traced operation's wall time.

Hot calls (event-queue operations, telemetry emits) are timed and counted
but leave no span record, which keeps memory flat on million-call runs.
Other calls leave a span (name, layer, start, end, CPU time, parent) up to
``MAX_SPANS`` per operation; the spans export as Chrome trace-event JSON
that opens in Perfetto.

A wrapper costs time outside the window it times: its own call, its frame
and its bookkeeping. That cost is measured once per wrapper kind, on an
empty function, when the tracer is made; every wrapped call then charges it
to ``wrapper_s`` instead of to the caller's layer.

Wrappers are installed on the owning class or module *and* on every loaded
``repro`` module global that still points at the original object, so names
bound by ``from x import f`` before installation see the wrapper too.
:meth:`Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from typing import Any, Callable

_perf = time.perf_counter
_cpu = time.process_time

#: Spans kept per operation; further calls are timed but leave no span.
MAX_SPANS = 20_000
#: Calls per timing of an empty wrapped call, and timings per wrapper kind.
CALIBRATION_CALLS = 5_000
CALIBRATION_REPEATS = 9


class Tracer:
    """Installs timing wrappers and accumulates per-layer self time."""

    def __init__(self):
        self._patches: list[tuple[Any, str, Any]] = []
        self._stack: list[list] = []  # [child_wall, span_id, layer]
        #: seconds a wrapped call costs outside its timed window, per kind
        self.call_cost = {True: 0.0, False: 0.0}
        self._calibrate()
        self.reset()

    # -- per-operation state ---------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (start of one operation)."""
        self.self_wall: dict[str, float] = {}
        self.cpu: dict[str, float] = {}  # nested calls included
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.wrapper_s = 0.0
        self._next_id = 1
        self._origin = _perf()

    def add_count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _calibrate(self) -> None:
        """Measure each wrapper kind's cost outside its timed window.

        An empty function is called through a wrapper inside a stand-in
        caller frame. The loop's time, less the wrapped windows and less an
        empty loop, is the cost the caller would otherwise be charged.
        """
        def empty(arg):
            return arg

        n = range(CALIBRATION_CALLS)
        for hot in (True, False):
            wrapped = self._wrap(empty, "calibrate", "calibrate", hot,
                                 None, ())
            costs = []
            for _ in range(CALIBRATION_REPEATS):
                self.reset()
                frame = [0.0, 0, "calibrate.caller"]
                self._stack.append(frame)
                t0 = _perf()
                for _ in n:
                    wrapped(None)
                outside = _perf() - t0 - frame[0]
                self._stack.pop()
                t0 = _perf()
                for _ in n:
                    pass
                outside -= _perf() - t0
                costs.append(outside / CALIBRATION_CALLS)
            self.call_cost[hot] = max(0.0, statistics.median(costs))

    # -- wrapping ----------------------------------------------------------------

    def _wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        hot: bool,
        on_result: Callable[[Any], None] | None,
        within: tuple[str, ...],
    ) -> Callable:
        stack = self._stack
        tracer = self
        cost = self.call_cost[hot]

        if hot:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = [0.0, stack[-1][1] if stack else 0, layer]
                stack.append(frame)
                w0 = _perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dw = _perf() - w0
                    stack.pop()
                    sw = tracer.self_wall
                    sw[layer] = sw.get(layer, 0.0) + dw - frame[0]
                    tracer.calls[layer] = tracer.calls.get(layer, 0) + 1
                    tracer.wrapper_s += cost
                    if stack:
                        stack[-1][0] += dw + cost
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if within and (not stack or stack[-1][2] not in within):
                    return fn(*args, **kwargs)
                span_id = 0
                if len(tracer.spans) < MAX_SPANS:
                    span_id = tracer._next_id
                    tracer._next_id = span_id + 1
                parent = stack[-1][1] if stack else 0
                frame = [0.0, span_id, layer]
                stack.append(frame)
                w0 = _perf()
                c0 = _cpu()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dc = _cpu() - c0
                    dw = _perf() - w0
                    stack.pop()
                    sw = tracer.self_wall
                    sw[layer] = sw.get(layer, 0.0) + dw - frame[0]
                    tc = tracer.cpu
                    tc[layer] = tc.get(layer, 0.0) + dc
                    tracer.calls[layer] = tracer.calls.get(layer, 0) + 1
                    tracer.wrapper_s += cost
                    if stack:
                        stack[-1][0] += dw + cost
                    if span_id:
                        tracer.spans.append(
                            (span_id, parent, name, layer,
                             w0 - tracer._origin, dw, dc)
                        )
                if on_result is not None:
                    on_result(result)
                return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def wrap_attr(
        self,
        owner: Any,
        attr: str,
        layer: str,
        hot: bool = False,
        on_result: Callable[[Any], None] | None = None,
        within: tuple[str, ...] = (),
    ) -> None:
        """Replace ``owner.attr`` (a function or plain method) by a wrapper.

        With ``within``, only calls made directly from those layers are
        timed; other calls pass through and count to their caller.
        """
        original = vars(owner)[attr]
        if getattr(original, "__wrapped_by_tracer__", False):
            return
        kind = None
        raw = original
        if isinstance(raw, (staticmethod, classmethod)):
            kind = type(raw)
            raw = raw.__func__
        owner_name = getattr(owner, "__qualname__", owner.__name__)
        wrapped = self._wrap(
            raw, f"{owner_name}.{attr}", layer, hot, on_result, within
        )
        self._patches.append((owner, attr, original))
        setattr(owner, attr, kind(wrapped) if kind else wrapped)
        if not isinstance(owner, type):
            self._rebind(raw, wrapped)

    def wrap_public_methods(self, cls: type, layer: str) -> None:
        """Wrap every public plain, static or class method ``cls`` defines."""
        for attr, value in list(vars(cls).items()):
            if not attr.startswith("_") and (
                inspect.isfunction(value)
                or isinstance(value, (staticmethod, classmethod))
            ):
                self.wrap_attr(cls, attr, layer)

    def _rebind(self, original: Any, wrapped: Any) -> None:
        """Point every loaded module global bound to ``original`` at ``wrapped``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name.startswith("repro") or mod_name == "workloads"
            ):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((module, key, original))
                    namespace[key] = wrapped

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting -------------------------------------------------------------

    def chrome_trace(self, process_name: str, root_wall: float) -> dict:
        """The recorded spans as a Chrome trace-event object."""
        events: list[dict] = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": process_name}},
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
             "args": {"name": "wall clock"}},
            {"ph": "X", "name": "operation", "cat": "operation", "pid": 1,
             "tid": 1, "ts": 0.0, "dur": root_wall * 1e6,
             "args": {"span_id": 0}},
        ]
        for span_id, parent, name, layer, start, dur, cpu in sorted(
            self.spans, key=lambda s: s[4]
        ):
            events.append({
                "ph": "X", "name": name, "cat": layer, "pid": 1, "tid": 1,
                "ts": start * 1e6, "dur": dur * 1e6,
                "args": {"span_id": span_id, "parent_id": parent,
                         "cpu_ms": cpu * 1e3},
            })
        return {"displayTimeUnit": "ms", "traceEvents": events}

    def write_chrome_trace(self, path, process_name: str, root_wall: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(process_name, root_wall), fh)
            fh.write("\n")
