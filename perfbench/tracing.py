"""Outside-in spans around each layer's public entry points.

The program's own tracing (``REPRO_TRACE``) stays off: its traced
executor materializes every plan node, so it would measure a different
execution shape.  Instead :class:`Tracer` replaces each entry point, at
the name its callers look it up by, with a wrapper that records one span
(family, self time, duration) in memory, and puts the original back on
:meth:`Tracer.uninstall`.

Synchronous spans nest on a stack: a span's self time is its duration
minus the durations of the spans opened directly inside it.  The only
asynchronous span, ``serving.submit_write``, waits on the writer task, so
it is never on the stack; the commit it waits for is recorded by the
writer task as its own root span.

Each span also carries the session it ran in (the client port of the
connection), so :meth:`Tracer.summary` can add up the server time of
every request of every connection; the load generator subtracts that
from the latency it observed to get the residual (socket, event loop,
dispatch and queueing).
"""

from __future__ import annotations

import contextvars
import functools
import time

#: The client port of the connection whose session task is running.
SESSION: contextvars.ContextVar = contextvars.ContextVar("perfbench_session", default=None)


def _size(batch) -> int:
    return batch.size()


def _length(result) -> int:
    return len(result)


def span_targets():
    """``(owner, attribute, family, measure)`` for every wrapped entry
    point; *measure* maps the call's result to a number summed per family."""
    import repro.engine
    import repro.serving.server as server
    from repro.reliability.durable import DurabilityController
    from repro.views.catalog import ViewCatalog
    from repro.views.database import Database, EpochHandle

    return [
        (server, "parse_request", "serving.parse", None),
        (server, "encode_result", "serving.encode", None),
        (server, "encode_ok", "serving.encode_ok", None),
        (server, "parse_query", "calculus.parse", None),
        (server, "evaluate_query", "calculus.eval", None),
        (Database, "pin", "views.pin", None),
        (EpochHandle, "release", "views.release", None),
        (EpochHandle, "instance", "views.read", None),
        (EpochHandle, "view", "views.read", None),
        (EpochHandle, "snapshot", "views.read", None),
        (Database, "transact", "views.transact", _size),
        (ViewCatalog, "maintain", "views.maintain", None),
        (DurabilityController, "log_batch", "reliability.wal_append", None),
        (repro.engine, "run_expression", "engine.run", _length),
        (repro.engine, "compile_expression", "engine.compile", None),
        (repro.engine, "execute_plan", "engine.execute", None),
    ]


def install_session_marker() -> None:
    """Tag each session task with its client port.  Must run before the
    server starts: ``asyncio.start_server`` binds the handler then."""
    from repro.serving.server import DatabaseServer

    handle_session = DatabaseServer._handle_session

    @functools.wraps(handle_session)
    async def marked(self, reader, writer):
        SESSION.set(writer.get_extra_info("peername")[1])
        return await handle_session(self, reader, writer)

    DatabaseServer._handle_session = marked


class Tracer:
    """Records spans while installed; summarizes them on demand."""

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- wrappers --------------------------------------------------------------
    def _sync(self, function, family: str, measure):
        stack, records, clock, session = self._stack, self.records, time.perf_counter, SESSION

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            frame = [clock(), 0.0, family]
            stack.append(frame)
            measured = None
            try:
                result = function(*args, **kwargs)
                if measure is not None:
                    measured = measure(result)
                return result
            finally:
                duration = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                records.append(
                    (family, duration - frame[1], duration, parent != family,
                     parent is None, session.get(), measured)
                )

        return wrapper

    def _async(self, function, family: str):
        records, clock, session = self.records, time.perf_counter, SESSION

        @functools.wraps(function)
        async def wrapper(*args, **kwargs):
            start = clock()
            try:
                return await function(*args, **kwargs)
            finally:
                duration = clock() - start
                records.append((family, duration, duration, True, True, session.get(), None))

        return wrapper

    def install(self) -> None:
        from repro.serving.server import DatabaseServer

        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.records.clear()
        for owner, attribute, family, measure in span_targets():
            original = getattr(owner, attribute)
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self._sync(original, family, measure))
        original = DatabaseServer.submit_write
        self._patches.append((DatabaseServer, "submit_write", original))
        DatabaseServer.submit_write = self._async(original, "serving.submit_write")

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- summary ---------------------------------------------------------------
    def summary(self) -> dict:
        """Per family: calls, calls not nested in the same family
        (``entries``), total self and wall seconds, the summed measure and
        the p99 duration; per session: server seconds per request, split
        at each ``serving.parse`` (the first thing a request does)."""
        families: dict[str, dict] = {}
        durations: dict[str, list] = {}
        sessions: dict[str, list] = {}
        for family, self_s, duration, entry, top, session, measured in self.records:
            stats = families.get(family)
            if stats is None:
                stats = families[family] = {
                    "calls": 0, "entries": 0, "self_s": 0.0, "dur_s": 0.0, "measure": 0,
                }
                durations[family] = []
            stats["calls"] += 1
            stats["entries"] += entry
            stats["self_s"] += self_s
            stats["dur_s"] += duration
            if measured is not None:
                stats["measure"] += measured
            durations[family].append(duration)
            if top and session is not None:
                requests = sessions.setdefault(str(session), [])
                if family == "serving.parse" or not requests:
                    requests.append(0.0)
                requests[-1] += duration
        for family, values in durations.items():
            values.sort()
            families[family]["p99_dur_s"] = values[min(len(values) - 1, int(0.99 * len(values)))]
        return {"families": families, "sessions": sessions}
