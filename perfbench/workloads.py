"""The three serving workloads: base data, views, queries and client scripts.

Everything here is a pure function of ``(seed, scale)``: the server
process builds its base and view/query definitions from it, the load
generator builds its per-connection request scripts from it, and the
oracles rebuild the same base to replay the acknowledged writes.  Nothing
in this module imports ``repro`` at module level, so the load generator's
timed loop never touches the library.

Every request belongs to a latency class: ``MAIN`` is the operation the
workload exists to measure, ``SIDE`` the traffic that shares the server
with it, ``OTHER`` bookkeeping requests (re-pins in query_mix and
calc_tc) that count toward throughput only.

Writes are conflict-free by construction: connection ``c`` inserts rows
whose second coordinate is a fresh atom ``c<c>n<i>`` and deletes only
rows it inserted itself or base rows of its own parity class.  So every
write is effective and the final state is the same for any interleaving,
which is what lets the oracle replay the acknowledged writes serially.
"""

from __future__ import annotations

import json
import random
from collections import deque

MAIN, SIDE, OTHER = 0, 1, 2
CLASS_NAMES = ("main", "side", "other")


class Op:
    """One scripted request: its latency class, the request line, what
    kind of request it is, whether the oracles need its response, and
    how long the connection pauses after the reply before it sends its
    next request (a closed loop with think time)."""

    __slots__ = ("cls", "line", "kind", "data", "keep", "think")

    def __init__(
        self, cls: int, line: str, kind: str, data=None, keep: bool = False, think: float = 0.0
    ):
        self.cls = cls
        self.line = (line + "\n").encode("utf-8")
        self.kind = kind
        self.data = data
        self.keep = keep
        self.think = think

    def __eq__(self, other) -> bool:
        return isinstance(other, Op) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

    def __repr__(self) -> str:
        return f"Op({CLASS_NAMES[self.cls]}, {self.line!r})"


def _rows_json(rows) -> str:
    return json.dumps([list(row) for row in rows], separators=(",", ":"))


def write_op(cls: int, verb: str, predicate: str, rows, think: float = 0.0) -> Op:
    rows = [tuple(row) for row in rows]
    line = f"{verb} {predicate} {_rows_json(rows)}"
    return Op(cls, line, "write", (verb, predicate, rows), True, think)


class _Writer:
    """One connection's conflict-free stream of 2-row INSERT/DELETEs."""

    def __init__(self, rng: random.Random, conn: int, keys, base_rows, think: float = 0.0):
        self._rng = rng
        self._think = think
        self._conn = conn
        self._keys = keys
        self._own: deque = deque()
        self._base = [row for index, row in enumerate(base_rows) if index % 2 == conn]
        rng.shuffle(self._base)
        self._fresh = 0

    def _take(self):
        if self._own and (not self._base or self._rng.random() < 0.5):
            return self._own.popleft()
        return self._base.pop()

    def next(self, cls: int) -> Op:
        rng = self._rng
        if len(self._own) >= 2 and rng.random() < 0.5:
            return write_op(cls, "DELETE", "R", [self._take(), self._take()], self._think)
        rows = []
        for _ in range(2):
            rows.append((rng.choice(self._keys), f"c{self._conn}n{self._fresh}"))
            self._fresh += 1
        self._own.extend(rows)
        return write_op(cls, "INSERT", "R", rows, self._think)


class FlatBase:
    """The base of write_mix and query_mix: a large binary
    relation ``R`` over ``sqrt(4 * rows)`` keys plus a 4-row ``S`` that
    joins ``S.2 = R.1``; *params* are seed-chosen selection constants."""

    schema_text = (("R", "[U, U]"), ("S", "[U, U]"))

    def __init__(self, seed: int, rows: int) -> None:
        rng = random.Random(f"base:{seed}")
        width = max(8, int((4 * rows) ** 0.5))
        keys = [f"k{index}" for index in range(width)]
        picks = rng.sample(range(width * width), rows)
        self.keys = keys
        self.rows = {
            "R": [(keys[pick // width], keys[pick % width]) for pick in picks],
            "S": [(f"g{index}", key) for index, key in enumerate(rng.sample(keys, 4))],
        }
        self.params = rng.sample(keys, 8)


class Workload:
    """A workload: base size, percentiles reported, and its scripts.

    *percentiles* gives the latency percentile of the main and the side
    class that the run reports as ``main_latency_ms`` and
    ``side_latency_ms``.  It is p90 where the class holds ten samples
    beyond p90 on a slow host: the host's speed swings between a fast and
    a slow state for seconds at a time, and a high percentile stays in
    the slow state, so it moves far less from run to run than a median,
    which lands in whichever state held the run longer.  It is lower
    where the class is thinner, or where its tail is queueing behind the
    other connection rather than the class's own work (see README.md).
    """

    name = ""
    rows = 0
    #: What the main and side classes are, for the per-verb report.
    verbs: tuple[str, str]
    percentiles: tuple[float, float]
    #: Server processes per untraced run.  Each is driven for an equal
    #: share of the run and their samples are pooled, so that one
    #: process's speed does not decide the run; ``setup_s`` is the median
    #: of their set-up times.
    launches = 3
    #: WAL records replayed by the timed recoveries (``recover_s``): a
    #: quarter or less of the writes one server acknowledges on a host
    #: running at a third of its usual speed.
    recover_records = 30
    #: Timed restarts after each server (see ``recovery.py``): this many
    #: fresh processes, each forking this many restarts.  How fast a
    #: recovery runs differs from process to process (0.25 to 0.42 s for
    #: query_mix's, in consecutive processes) and much less between the
    #: restarts of one process, so a small recovery is timed in several
    #: processes; recover_s is the slowest process's median restart.
    recover_processes = 1
    recover_restarts = 1

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.base = FlatBase(seed, max(64, int(self.rows * scale)))

    @property
    def base_rows(self) -> dict:
        return self.base.rows

    def schema(self):
        from repro.types.parser import parse_type
        from repro.types.schema import DatabaseSchema

        return DatabaseSchema([(name, parse_type(text)) for name, text in self.base.schema_text])

    def views(self) -> dict:
        """Relational views maintained by the server: name → expression."""
        from repro.algebra.expressions import (
            ConstantOperand,
            PredicateExpression,
            Product,
            Projection,
            Selection,
            SelectionCondition,
        )

        r, s = PredicateExpression("R"), PredicateExpression("S")
        return {
            "sel": Selection(r, SelectionCondition.eq(1, ConstantOperand(self.base.params[0]))),
            "proj": Projection(r, (2,)),
            "join": Projection(Selection(Product(s, r), SelectionCondition.eq(2, 3)), (1, 4)),
        }

    def expected_views(self, state: dict) -> dict:
        """The views recomputed in plain Python over *state*."""
        r, key = state["R"], self.base.params[0]
        return {
            "sel": {row for row in r if row[0] == key},
            "proj": {(row[1],) for row in r},
            "join": {(g, b) for g, k in state["S"] for a, b in r if a == k},
        }

    def queries(self) -> dict:
        """Registered engine queries: name → expression."""
        return {}

    def calc_text(self) -> str | None:
        return None

    def script(self, conn: int):
        """Connection *conn*'s endless, deterministic request stream."""
        raise NotImplementedError

    def _rng(self, conn: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{conn}")


def _rounds(rng: random.Random, items):
    """Endless *items*, in a fresh shuffled order each round: exact
    proportions over every round, random positions within it."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


class WriteMix(Workload):
    """100k durable rows, 90% 2-row writes, the rest fresh VIEW reads."""

    name = "write_mix"
    rows = 100_000
    verbs = ("write", "read")
    # A thousand to seventeen hundred writes and 100 to 170 reads per
    # sixteen-second run; p85 keeps ten reads beyond it down to 45 req/s.
    percentiles = (0.90, 0.85)

    def script(self, conn: int):
        rng = self._rng(conn)
        writer = _Writer(rng, conn, self.base.keys, self.base.rows["R"])
        writes = _rounds(rng, [True] * 9 + [False])
        views = _rounds(rng, ("join", "proj", "sel"))
        while True:
            if next(writes):
                yield writer.next(MAIN)
            else:
                name = next(views)
                yield Op(SIDE, f"VIEW {name}", "read", ("VIEW", name))


class QueryMix(Workload):
    """20k rows, eight engine queries, one request in five a write.

    Both connections send the same mix of queries and writes, pausing
    after each write.  Queries read the live epoch, so the first one after
    each write misses the epoch-keyed response cache and the program's
    per-epoch caches.
    Every 20th query is bracketed by ``PIN``/``UNPIN`` so that the oracle
    knows which epoch it answered at.
    """

    name = "query_mix"
    rows = 20_000
    verbs = ("query", "write")
    # About 400 queries and 100 writes per sixteen-second run.  A write
    # waits when it arrives while the other connection's query (up to a
    # ~100 ms re-encode) holds the event loop, which happens to a share
    # of writes that varies from run to run, and the median sits near the
    # edge of that share: over six seeds the write p90 spread by 0.63 of
    # its median, p50 by 0.11 (0.26 over ten other seeds), p25 by 0.08.
    # So writes report their p25, the cost of a write that did not wait.
    percentiles = (0.90, 0.25)
    #: A connection's pause after each write ack, longer than the ~100 ms
    #: re-encode its write sets off in the next query.  Without it, the
    #: other connection's next request queued behind that re-encode about
    #: half the time, so query latency and write tails jumped between
    #: ~10 ms and ~100 ms from run to run.
    WRITE_THINK_S = 0.2
    recover_records = 5
    recover_processes = 3
    recover_restarts = 2
    #: The names :meth:`queries` registers, kept here so that building a
    #: script needs no library import.
    QUERY_NAMES = (
        "q_and", "q_join", "q_key", "q_key2", "q_or", "q_or3", "q_proj", "q_proj_or",
    )

    def queries(self) -> dict:
        from repro.algebra.expressions import (
            ConstantOperand,
            PredicateExpression,
            Product,
            Projection,
            Selection,
            SelectionCondition,
        )

        r, s = PredicateExpression("R"), PredicateExpression("S")
        p = self.base.params
        either = SelectionCondition.disjunction

        def key(index):
            return SelectionCondition.eq(1, ConstantOperand(p[index]))

        return {
            "q_key": Selection(r, key(1)),
            "q_key2": Selection(r, key(2)),
            "q_or": Selection(r, either(key(3), key(4))),
            "q_or3": Selection(r, either(key(5), either(key(6), key(7)))),
            "q_and": Selection(
                r, SelectionCondition.conjunction(key(4), SelectionCondition.negation(key(5)))
            ),
            "q_proj": Projection(Selection(r, key(0)), (2,)),
            "q_proj_or": Projection(Selection(r, either(key(2), key(3))), (2,)),
            "q_join": Projection(
                Selection(Product(s, r), SelectionCondition.eq(2, 3)), (1, 4)
            ),
        }

    def script(self, conn: int):
        rng = self._rng(conn)
        writer = _Writer(rng, conn, self.base.keys, self.base.rows["R"], self.WRITE_THINK_S)
        writes = _rounds(rng, [True] + [False] * 4)
        names = _rounds(rng, self.QUERY_NAMES)
        queries = 0
        while True:
            if next(writes):
                yield writer.next(SIDE)
                continue
            queries += 1
            name = next(names)
            query = Op(MAIN, f"QUERY {name}", "read", ("QUERY", name), keep=queries % 20 == 0)
            if not query.keep:
                yield query
                continue
            yield Op(OTHER, "PIN", "pin", keep=True)
            yield query
            yield Op(OTHER, "UNPIN", "unpin", keep=True)


class ParBase:
    """calc_tc's base: a 3-atom PAR chain ``a -> b -> c`` with seed-chosen
    atom names (the shape is fixed so that CALC's cost does not vary)."""

    schema_text = (("PAR", "[U, U]"),)

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"par:{seed}")
        a, b, c = rng.sample([f"p{index}" for index in range(100)], 3)
        self.rows = {"PAR": [(a, b), (b, c)]}


class CalcTc(Workload):
    """Connection 0 sends the CALC_{0,1} transitive-closure query back to
    back; connection 1 sends cheap reads beside it.  Connection 1 thinks
    for 2 ms after each reply, so its next read always arrives after
    connection 0's next CALC has started and waits behind it: the cheap
    reads measure how long CALC holds the event loop."""

    name = "calc_tc"
    verbs = ("calc", "read")
    # About 150 CALCs and 150 reads per sixteen-second run.
    percentiles = (0.90, 0.90)
    recover_records = 0
    recover_restarts = 15
    #: Connection 1's pause after each reply.
    THINK_S = 0.002

    READS = (("EPOCH", None), ("GET", "PAR"), ("VIEW", "parents"), ("QUERY", "parents"))

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.base = ParBase(seed)

    def views(self) -> dict:
        from repro.algebra.expressions import PredicateExpression, Projection

        return {"parents": Projection(PredicateExpression("PAR"), (1,))}

    def expected_views(self, state: dict) -> dict:
        return {"parents": {(a,) for a, _ in state["PAR"]}}

    def calc_text(self) -> str:
        from repro.calculus.builders import transitive_closure_query
        from repro.calculus.printer import format_query

        return format_query(transitive_closure_query())

    def script(self, conn: int):
        rng = self._rng(conn)
        if conn == 0:
            text = self.calc_text()
            yield Op(OTHER, "PIN", "pin", keep=True)
            calls = 0
            while True:
                calls += 1
                yield Op(MAIN, f"CALC {text}", "calc", keep=calls % 10 == 1)
        reads = _rounds(rng, self.READS)
        think = self.THINK_S
        yield Op(SIDE, "PIN", "pin", keep=True, think=think)
        since_pin = sampled = 0
        while True:
            since_pin += 1
            if since_pin >= 20:
                since_pin = 0
                yield Op(SIDE, "PIN", "pin", keep=True, think=think)
                continue
            verb, operand = next(reads)
            if verb == "EPOCH":
                yield Op(SIDE, "EPOCH", "read", think=think)
                continue
            sampled += 1
            keep = sampled % 5 == 0
            yield Op(SIDE, f"{verb} {operand}", "read", (verb, operand), keep, think)


WORKLOADS = {cls.name: cls for cls in (WriteMix, QueryMix, CalcTc)}
