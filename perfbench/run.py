"""Out-of-process serving benchmark for the ``repro`` database server.

Run from the repository root::

    python3 perfbench/run.py --workload write_mix --seed 1 --seconds 16 --trace 0

The launcher starts ``perfbench/server.py`` — a ``DatabaseServer`` over a
durable database built from the seed — in its own process, and drives it
from this process in a closed loop over two connections (one per core of
a two-core host), with raw line I/O: the timed loop only looks at the
``OK``/``ERR`` prefix of each reply.  After the timed phase it kills the
server with SIGKILL and runs the oracles of ``oracles.py`` over its
replies, its final state and the recovered database.

``--trace 0`` reports the end-to-end metrics of an untraced run: the
workload's ``launches`` servers are started one after another, each is
driven for an equal share of ``--seconds``, and their samples are pooled.
``--trace 1`` starts one server, runs half of ``--seconds`` untraced and
half with the outside-in spans of ``tracing.py`` installed in it, and
reports the per-layer metrics.  The last line of standard output is the result
object; the line before it is a detailed report (per-verb names, sample
counts, run metadata).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import CLASS_NAMES, MAIN, SIDE, WORKLOADS  # noqa: E402

#: Untimed closed-loop warm-up of each server before its timed phase.
WARMUP_S = 0.5
#: Reply timeouts: a server that does not answer within these has hung.
READY_TIMEOUT_S = 120.0
REPLY_TIMEOUT_S = 60.0
#: Hard limit on one run; the servers are killed on the way out.
RUN_LIMIT_S = 170
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
#: Oracle samples of GET/VIEW/QUERY replies checked per server.
READ_SAMPLES = 2


class BenchmarkError(Exception):
    """The run could not be measured; no result is printed."""


# -- the server process --------------------------------------------------------
def child_env() -> dict:
    """The environment of a child process: the library on its path and
    the program's own tracing off."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("REPRO_TRACE", None)
    return env


class ServerProcess:
    """``server.py`` in a child process, spoken to over its stdin/stdout."""

    def __init__(self, workload: str, seed: int, scale: float, trace: int, directory: Path):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "server.py"),
                "--workload", workload, "--seed", str(seed), "--scale", str(scale),
                "--dir", str(directory), "--trace", str(trace),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=child_env(),
        )
        self._buffer = b""
        self.port = None

    def read_line(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            ready = selectors.DefaultSelector()
            ready.register(fd, selectors.EVENT_READ)
            events = ready.select(max(0.0, remaining))
            ready.close()
            if not events:
                raise BenchmarkError(f"server sent no reply within {timeout:.0f}s")
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise BenchmarkError(f"server exited (code {self.proc.wait()})")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode("utf-8")

    def wait_ready(self) -> float:
        """Seconds from launch to READY."""
        line = self.read_line(READY_TIMEOUT_S)
        elapsed = time.perf_counter() - self.started
        if not line.startswith("READY "):
            raise BenchmarkError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])
        return elapsed

    def command(self, text: str) -> str:
        self.proc.stdin.write(text.encode("utf-8") + b"\n")
        self.proc.stdin.flush()
        return self.read_line(REPLY_TIMEOUT_S)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass

    def cpu_s(self) -> float:
        """User + system CPU seconds of the server so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchmarkError("VmHWM not found in /proc status")


# -- the load generator ----------------------------------------------------------
class Connection:
    """One client connection and its scripted request stream."""

    def __init__(self, index: int, port: int, script) -> None:
        self.index = index
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.port = self.sock.getsockname()[1]
        self.script = script
        self.sent = 0
        self.op = None
        self.sent_at = 0.0

    def request(self, line: bytes) -> bytes:
        """One untimed request outside the closed loop (e.g. STATS)."""
        self.sock.sendall(line)
        buffer = bytearray()
        self.sock.settimeout(REPLY_TIMEOUT_S)
        try:
            while not buffer.endswith(b"\n"):
                chunk = self.sock.recv(1 << 18)
                if not chunk:
                    raise BenchmarkError("server closed the connection")
                buffer += chunk
        finally:
            self.sock.settimeout(None)
        return bytes(buffer[:-1])

    def close(self) -> None:
        self.sock.close()


class Phase:
    """What one closed-loop phase observed."""

    def __init__(self, connections=()) -> None:
        self.latencies = ([], [], [])
        self.per_connection = {c.port: [] for c in connections}
        self.kept: list[tuple] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.completed = 0
        self.response_bytes = 0
        self.user_bytes = 0
        self.wall_s = 0.0
        self.client_cpu_s = 0.0
        self.server_cpu_s = 0.0
        self.steal_s = 0.0

    @property
    def throughput(self) -> float:
        return self.completed / self.wall_s

    @classmethod
    def pooled(cls, phases) -> "Phase":
        """One phase holding the latencies and totals of all *phases*."""
        pool = cls()
        for phase in phases:
            for cls_samples, samples in zip(pool.latencies, phase.latencies):
                cls_samples.extend(samples)
            pool.errors += phase.errors
            for name in (
                "attempted", "completed", "response_bytes", "user_bytes",
                "wall_s", "client_cpu_s", "server_cpu_s", "steal_s",
            ):
                setattr(pool, name, getattr(pool, name) + getattr(phase, name))
        return pool


def drive(connections, seconds: float, server: ServerProcess) -> Phase:
    """Closed loop: each connection sends its next request once the reply
    to the previous one has arrived (plus the think time of its op), until *seconds*
    have passed; requests in flight at the deadline are completed."""
    phase = Phase(connections)
    latencies, kept, errors = phase.latencies, phase.kept, phase.errors
    selector = selectors.DefaultSelector()
    buffers = {}
    timers: dict[Connection, float] = {}
    clock = time.perf_counter

    def send(connection: Connection) -> None:
        op = next(connection.script)
        connection.op = op
        connection.sock.sendall(op.line)
        connection.sent_at = clock()
        phase.attempted += 1

    server_cpu = server.cpu_s()
    steal = steal_s()
    cpu = time.process_time()
    start = clock()
    deadline = start + seconds
    active = len(connections)
    for connection in connections:
        selector.register(connection.sock, selectors.EVENT_READ, connection)
        buffers[connection] = bytearray()
        send(connection)
    last = start
    while active:
        timeout = REPLY_TIMEOUT_S
        if timers:
            timeout = max(0.0, min(timers.values()) - clock())
        events = selector.select(timeout)
        now = clock()
        if not events and not timers:
            raise BenchmarkError(f"no reply within {REPLY_TIMEOUT_S:.0f}s")
        for key, _ in events:
            connection = key.data
            buffer = buffers[connection]
            chunk = connection.sock.recv(1 << 18)
            if not chunk:
                raise BenchmarkError("server closed a connection")
            buffer += chunk
            if buffer[-1] != 10:
                continue
            elapsed = now - connection.sent_at
            op = connection.op
            latencies[op.cls].append(elapsed)
            phase.per_connection[connection.port].append(elapsed)
            phase.completed += 1
            phase.response_bytes += len(buffer)
            if buffer[:3] != b"OK ":
                errors.append(f"{op.line[:60]!r} -> {bytes(buffer[:160])!r}")
            elif op.keep:
                kept.append((connection.index, connection.sent, op, bytes(buffer[:-1])))
                if op.kind == "write":
                    verb, predicate, _ = op.data
                    phase.user_bytes += len(op.line) - len(verb) - len(predicate) - 3
            connection.sent += 1
            buffers[connection] = bytearray()
            last = now
            if now >= deadline:
                selector.unregister(connection.sock)
                active -= 1
                continue
            if op.think:
                timers[connection] = now + op.think
            else:
                send(connection)
        if timers:
            now = clock()
            for connection, due in list(timers.items()):
                if due <= now:
                    del timers[connection]
                    send(connection)
    selector.close()
    phase.wall_s = last - start
    phase.client_cpu_s = time.process_time() - cpu
    phase.server_cpu_s = server.cpu_s() - server_cpu
    phase.steal_s = steal_s() - steal
    return phase


# -- metrics ---------------------------------------------------------------------
def percentile(values, q: float, allow_thin: bool) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    if not ordered:
        raise BenchmarkError(f"no samples for p{round(q * 100)}")
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND and not allow_thin:
        raise BenchmarkError(
            f"p{round(q * 100)} has {beyond} samples beyond it (< {MIN_BEYOND}); run longer"
        )
    return ordered[rank - 1], beyond


def steal_s() -> float:
    """Seconds of CPU time stolen from this machine so far, all CPUs."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop (best of five)."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def source_digest() -> str:
    """Stands in for the commit: the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def metric_units(trace: int) -> dict:
    """Name → unit of the metrics a run reports, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec["per_layer" if trace else "end_to_end"]}


def per_call_ms(families: dict, family: str, key: str = "calls") -> float:
    stats = families.get(family)
    if not stats or not stats[key]:
        return 0.0
    return stats["self_s"] / stats[key] * 1000.0


def layer_metrics(summary, untraced: Phase, traced: Phase, stats0, stats1) -> dict:
    families = summary["families"]

    def count(family, key="calls"):
        return families.get(family, {}).get(key, 0)

    def total(family, key):
        return families.get(family, {}).get(key, 0.0)

    residuals = []
    for port, latencies in traced.per_connection.items():
        server_times = summary["sessions"].get(str(port), [])
        if len(server_times) != len(latencies):
            raise BenchmarkError(
                f"connection {port}: {len(latencies)} replies but {len(server_times)} traced requests"
            )
        residuals.extend(lat - srv for lat, srv in zip(latencies, server_times))
    reads = stats1["server"]["reads_served"] - stats0["server"]["reads_served"]
    hits = stats1["server"]["read_cache_hits"] - stats0["server"]["read_cache_hits"]
    wal_bytes = (
        stats1["reliability"]["wal_bytes_written"] - stats0["reliability"]["wal_bytes_written"]
    )
    runs = count("engine.run")
    writes = count("serving.submit_write")
    pins = count("views.pin")
    encodes = count("serving.encode_ok")
    metrics = {
        "serving.parse_ms": per_call_ms(families, "serving.parse"),
        "serving.encode_ms": (
            (total("serving.encode", "self_s") + total("serving.encode_ok", "self_s"))
            / encodes * 1000.0 if encodes else 0.0
        ),
        "serving.response_bytes": traced.response_bytes / traced.completed,
        "serving.cache_hit_ratio": hits / reads if reads else 0.0,
        "serving.writer_wait_ms": (
            (total("serving.submit_write", "dur_s") - total("views.transact", "dur_s"))
            / writes * 1000.0 if writes else 0.0
        ),
        "serving.residual_ms": statistics.fmean(residuals) * 1000.0,
        "server.cpu_ms_per_req": untraced.server_cpu_s / untraced.completed * 1000.0,
        "views.pin_ms": (
            (total("views.pin", "self_s") + total("views.release", "self_s"))
            / pins * 1000.0 if pins else 0.0
        ),
        "views.read_ms": per_call_ms(families, "views.read", "entries"),
        "views.commit_self_ms": per_call_ms(families, "views.transact"),
        "views.maintain_ms": per_call_ms(families, "views.maintain"),
        "views.delta_rows": (
            total("views.transact", "measure") / count("views.transact")
            if count("views.transact") else 0.0
        ),
        "reliability.wal_append_ms": per_call_ms(families, "reliability.wal_append"),
        "reliability.wal_bytes_per_user_byte": (
            wal_bytes / traced.user_bytes if traced.user_bytes else 0.0
        ),
        "engine.compile_ms": per_call_ms(families, "engine.compile"),
        "engine.plan_cache_hit_ratio": 1.0 - count("engine.compile") / runs if runs else 0.0,
        "engine.execute_ms": per_call_ms(families, "engine.execute"),
        "engine.execute_p99_ms": total("engine.execute", "p99_dur_s") * 1000.0,
        "engine.rows_out": total("engine.run", "measure") / runs if runs else 0.0,
        "calculus.parse_ms": per_call_ms(families, "calculus.parse"),
        "calculus.eval_ms": per_call_ms(families, "calculus.eval"),
        "client.cpu_util": untraced.client_cpu_s / untraced.wall_s,
        "trace.overhead_pct": (untraced.throughput - traced.throughput)
        / untraced.throughput * 100.0,
    }
    return metrics


# -- oracles -------------------------------------------------------------------------
def timed_recoveries(directory: Path, restarts: int) -> list[float]:
    """Seconds of the recovery of each of *restarts* restarts over
    *directory* (``recovery.py``)."""
    try:
        completed = subprocess.run(
            [sys.executable, str(HERE / "recovery.py"), str(directory), str(restarts)],
            capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=REPLY_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError("timed recovery did not finish") from error
    if completed.returncode != 0:
        raise BenchmarkError(f"timed recovery failed: {completed.stderr[-400:]}")
    return json.loads(completed.stdout)


def copy_with_wal_prefix(directory: Path, records: int) -> Path:
    """A copy of the crashed database whose WAL holds only its first
    *records* records, so that the timed recoveries replay the same
    amount of log in every run."""
    from repro.reliability.durable import WAL_FILENAME
    from repro.reliability.wal import WriteAheadLog, read_wal

    entries, _ = read_wal(directory / WAL_FILENAME)
    if len(entries) < records:
        raise BenchmarkError(f"only {len(entries)} WAL records, {records} needed to time recovery")
    copy = directory.with_name(directory.name + "-prefix")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(directory, copy, ignore=shutil.ignore_patterns(WAL_FILENAME))
    log = WriteAheadLog(copy / WAL_FILENAME, fsync="never")
    try:
        for sequence, payload in entries[:records]:
            log.append(payload, sequence=sequence)
    finally:
        log.close()
    return copy


def time_recoveries(directory: Path, records: int, processes: int, restarts: int) -> list:
    """Timed recoveries of a copy of *directory* holding *records* WAL
    records: *restarts* in each of *processes* fresh processes."""
    prefix = copy_with_wal_prefix(directory, records)
    try:
        return [timed_recoveries(prefix, restarts) for _ in range(processes)]
    finally:
        shutil.rmtree(prefix, ignore_errors=True)


def run_oracles(workload, kept, dumped, directory: Path, recover: bool = True):
    """Every oracle over one server's kept replies and dumped final state
    and, when *recover*, over its recovered database; returns failures and
    counts."""
    import oracles
    from repro.reliability import recover_database

    writes = oracles.acknowledged_writes(kept)
    state, effective, failures = oracles.replay(workload.base_rows, writes)
    failures += oracles.check_final(dumped, state, effective, workload.expected_views(state))
    samples = oracles.spread(oracles.sampled_reads(kept), READ_SAMPLES)
    read_failures, checked = oracles.check_reads(workload, workload.base_rows, writes, samples)
    failures += read_failures
    calc_lines = [line for _, _, op, line in kept if op.kind == "calc"]
    if workload.calc_text() is not None:
        if not calc_lines:
            failures.append("no CALC reply was kept for checking")
        failures += oracles.check_calc(workload.base_rows["PAR"], calc_lines)
    counts = {
        "writes_acknowledged": len(writes),
        "effective_writes": effective,
        "reads_checked": checked,
        "calc_replies_checked": len(set(calc_lines)),
    }
    if recover:
        database = recover_database(directory, fsync="never", log_updates=False)
        failures += oracles.check_recovered(database, state, effective)
        database.close()
    return failures, counts


# -- one run ---------------------------------------------------------------------------
class Segment:
    """One server process: its launch-to-READY time, the phases driven
    against it (warm-up first), and what it held when it was killed."""

    def __init__(self, setup_s: float, directory: Path) -> None:
        self.setup_s = setup_s
        self.directory = directory
        self.phases: list[Phase] = []
        self.measured: list[Phase] = []
        self.dumped: dict = {}
        self.rss_mb = 0.0
        self.summary = self.stats0 = self.stats1 = None

    @property
    def kept(self) -> list:
        return [item for phase in self.phases for item in phase.kept]


def serve_segment(args, workload, seconds: float, directory: Path) -> Segment:
    """Launch one server, warm it up, run the timed phase(s) against it,
    dump its final state and SIGKILL it."""
    server = ServerProcess(args.workload, args.seed, args.scale, args.trace, directory)
    connections: list[Connection] = []
    try:
        segment = Segment(server.wait_ready(), directory)
        connections = [
            Connection(index, server.port, workload.script(index))
            for index in range(2)
        ]
        segment.phases.append(drive(connections, WARMUP_S, server))
        if args.trace:
            segment.measured.append(drive(connections, seconds / 2, server))
            segment.stats0 = json.loads(connections[0].request(b"STATS\n")[3:])
            if server.command("TRACE ON") != "OK":
                raise BenchmarkError("server could not install the tracer")
            segment.measured.append(drive(connections, seconds / 2, server))
            segment.summary = json.loads(server.command("TRACE OFF"))
            segment.stats1 = json.loads(connections[0].request(b"STATS\n")[3:])
        else:
            segment.measured.append(drive(connections, seconds, server))
        segment.phases += segment.measured
        segment.dumped = json.loads(server.command("DUMP"))
        segment.rss_mb = server.peak_rss_mb()
    finally:
        for connection in connections:
            connection.close()
        server.kill()
    return segment


def run(args) -> tuple[dict, dict]:
    """The workload's servers one after another (one for a traced run),
    sharing ``--seconds``; after each, its oracles and timed recoveries,
    so that those too are spread over the run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"library sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    allow_thin = args.scale < 1.0
    calib_ms = calibrate()
    launches = 1 if args.trace else workload.launches
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    segments: list[Segment] = []
    failures: list[str] = []
    checks: dict = {}
    times: list[float] = []
    try:
        for launch in range(launches):
            directory = workdir / f"db{launch}"
            segment = serve_segment(args, workload, args.seconds / launches, directory)
            segments.append(segment)
            found, counts = run_oracles(
                workload, segment.kept, segment.dumped, directory, recover=launch == launches - 1
            )
            failures += found
            for name, value in counts.items():
                checks[name] = checks.get(name, 0) + value
            if not args.trace:
                # A server far slower than usual may log fewer writes
                # than the workload asks for; it times those it has.
                records = min(workload.recover_records, counts["effective_writes"])
                # Restarts after every server, so that recover_s samples
                # the host at as many moments of the run as there are servers.
                for restarts in time_recoveries(
                    directory, records, workload.recover_processes, workload.recover_restarts
                ):
                    times.append(statistics.median(restarts))
                    checks.setdefault("recover_restarts_s", []).append(restarts)
                checks.setdefault("recover_wal_records", []).append(records)
            shutil.rmtree(directory, ignore_errors=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    phases = [phase for segment in segments for phase in segment.phases]
    errors = [error for phase in phases for error in phase.errors]
    measured = [phase for segment in segments for phase in segment.measured]
    attempted = sum(phase.attempted for phase in measured)
    failed = sum(len(phase.errors) for phase in measured)
    if args.trace:
        untraced, timed = measured
    else:
        untraced = timed = Phase.pooled(measured)
    server_util = untraced.server_cpu_s / untraced.wall_s
    client_util = untraced.client_cpu_s / untraced.wall_s
    if client_util > 0.8 and client_util > server_util:
        raise BenchmarkError(
            f"load generator saturated (client cpu {client_util:.2f} vs server {server_util:.2f})"
        )
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "source_sha256": source_digest(),
        "host.calib_ms": calib_ms,
        "servers": len(segments),
        "connections": 2,
        "loop": "closed",
        "flush_policy": "fsync=never (server and recovery)",
        "requests": {CLASS_NAMES[c]: len(timed.latencies[c]) for c in range(3)},
        "error_ratio": len(errors) / sum(phase.attempted for phase in phases),
        "errors": errors[:5],
        "oracle_failures": failures,
        "client.cpu_util": client_util,
        "server.cpu_util": server_util,
        # CPU time the hypervisor gave to others while the timed phases
        # ran, as a share of all CPUs: runs with a high share are slow.
        "host.steal_pct": untraced.steal_s / (untraced.wall_s * os.cpu_count()) * 100.0,
        **checks,
    }
    if args.trace:
        segment = segments[0]
        metrics = layer_metrics(segment.summary, untraced, timed, segment.stats0, segment.stats1)
        metrics["host.calib_ms"] = calib_ms
        report["trace_families"] = segment.summary["families"]
    else:
        metrics = {"setup_s": statistics.median(segment.setup_s for segment in segments)}
        report["setup_s_each"] = [segment.setup_s for segment in segments]
        report["throughput_rps"] = timed.throughput
        # Each class is gated on one percentile; its mean and median are
        # only reported (see README.md: on a host whose speed swings, the
        # percentile is the steadier).
        for cls, role in ((MAIN, "main"), (SIDE, "side")):
            verb = workload.verbs[cls]
            latencies = timed.latencies[cls]
            q = workload.percentiles[cls]
            value, beyond = percentile(latencies, q, allow_thin)
            metrics[f"{role}_latency_ms"] = value * 1000.0
            report[f"{verb}_mean_ms"] = statistics.fmean(latencies) * 1000.0
            report[f"{verb}_p50_ms"] = percentile(latencies, 0.5, allow_thin)[0] * 1000.0
            report[f"{verb}_p{round(q * 100)}_ms"] = value * 1000.0
            report[f"{verb}_samples"] = len(latencies)
            report[f"{verb}_beyond_p{round(q * 100)}"] = beyond
        # The slowest process's median restart: like a p90 latency, it
        # stays in the host's slow state (see README.md).
        metrics["recover_s"] = max(times)
        metrics["server_rss_mb"] = max(segment.rss_mb for segment in segments)
    report["metrics"] = metrics
    units = metric_units(args.trace)
    if set(metrics) != set(units):
        raise BenchmarkError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    result = {
        # Errors in a warm-up count too: cold paths run there first.
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Out-of-process serving benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="base size factor; below 1 (self-test sizes) thin percentiles are allowed",
    )
    args = parser.parse_args(argv)

    def overrun(signum, frame):
        raise BenchmarkError(f"run exceeded {RUN_LIMIT_S}s")

    signal.signal(signal.SIGALRM, overrun)
    signal.alarm(RUN_LIMIT_S)
    try:
        report, result = run(args)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
