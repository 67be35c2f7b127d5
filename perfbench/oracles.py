"""Correctness oracles, run after the timed phase.

Each check returns a list of failure messages (empty when it passes), so
the self-test can feed it a tampered answer and see it rejected.  The
expected values come from plain Python (serial replay, view recompute,
transitive closure) or from the library's legacy tree-walking evaluator,
never from the code path that served the answer.  Replies are decoded in
plain Python into sets of rows, so the serving encoder is on one side of
each comparison only.
"""

from __future__ import annotations

import json
import math


class Write:
    """One acknowledged write: what was sent and what the ack said."""

    __slots__ = ("epoch", "applied", "verb", "predicate", "rows", "conn", "index")

    def __init__(self, epoch, applied, verb, predicate, rows, conn, index):
        self.epoch = epoch
        self.applied = applied
        self.verb = verb
        self.predicate = predicate
        self.rows = rows
        self.conn = conn
        self.index = index


def parse_ok(line: bytes):
    if not line.startswith(b"OK "):
        raise ValueError(f"not an OK response: {line[:120]!r}")
    return json.loads(line[3:])


def acknowledged_writes(kept) -> list[Write]:
    """The writes among the kept ``(conn, index, op, line)`` responses."""
    writes = []
    for conn, index, op, line in kept:
        if op.kind != "write":
            continue
        ack = parse_ok(line)
        verb, predicate, rows = op.data
        writes.append(Write(ack["epoch"], ack["applied"], verb, predicate, rows, conn, index))
    return writes


def commit_order(writes) -> list[Write]:
    """Acknowledged writes ordered by the epoch each ack reports, the
    effective ones (``applied > 0``) first within an epoch."""
    return sorted(writes, key=lambda w: (w.epoch, w.applied == 0, w.conn, w.index))


def _apply(relation: set, write: Write) -> int:
    rows = set(write.rows)
    if write.verb == "INSERT":
        effective = rows - relation
        relation |= effective
    else:
        effective = rows & relation
        relation -= effective
    return len(effective)


def replay(base_rows: dict, writes) -> tuple[dict, int, list[str]]:
    """Serial replay of *writes* over the base: the final state, the
    number of effective writes, and failures (an ack whose ``applied``
    differs from the replayed effect, or epochs that go backwards on one
    connection)."""
    state = {name: set(rows) for name, rows in base_rows.items()}
    failures = []
    last_epoch: dict[int, int] = {}
    for write in sorted(writes, key=lambda w: (w.conn, w.index)):
        if write.epoch < last_epoch.get(write.conn, 0):
            failures.append(f"connection {write.conn}: ack epoch {write.epoch} went backwards")
        last_epoch[write.conn] = write.epoch
    effective = 0
    for write in commit_order(writes):
        applied = _apply(state[write.predicate], write)
        if applied != write.applied:
            failures.append(
                f"{write.verb} {write.rows} acked applied={write.applied}, replay gives {applied}"
            )
        effective += applied > 0
    return state, effective, failures


def check_final(dumped: dict, state: dict, effective: int, expected_views: dict) -> list[str]:
    """The served final state and view values against the replay."""
    from server import rows_digest

    failures = []
    if dumped["epoch"] != effective:
        failures.append(f"final epoch {dumped['epoch']} != {effective} effective writes")
    for name, rows in state.items():
        if dumped["base"].get(name) != rows_digest(rows):
            failures.append(f"final contents of {name} differ from the serial replay")
    for name, rows in expected_views.items():
        if dumped["views"].get(name) != rows_digest(rows):
            failures.append(f"view {name} differs from its recompute")
    return failures


def epoch_states(base_rows: dict, writes, epochs):
    """Yield ``(epoch, state)`` for each requested epoch whose state the
    acks determine, in epoch order.

    An ack reports the epoch current when its session resumed, which can
    be later than the batch's own epoch when the writer committed another
    connection's batch first.  So the writes acked at epoch ``g`` are the
    last ones committed up to ``g``, in an order the acks do not give;
    the state at an epoch strictly inside such a group is unknown and is
    skipped.
    """
    state = {name: set(rows) for name, rows in base_rows.items()}
    effective = [w for w in commit_order(writes) if w.applied > 0]
    boundaries = {0}
    count = 0
    for position, write in enumerate(effective):
        count += 1
        if position + 1 == len(effective) or effective[position + 1].epoch != write.epoch:
            boundaries.add(count)
    applied = 0
    for epoch in sorted(set(epochs)):
        if epoch not in boundaries:
            continue
        while applied < epoch:
            _apply(state[effective[applied].predicate], effective[applied])
            applied += 1
        yield epoch, state


def sampled_reads(kept) -> list[tuple[int, str, str, bytes]]:
    """``(epoch, verb, name, line)`` for every kept GET/VIEW/QUERY
    response, the epoch being the one the connection last pinned."""
    pinned: dict[int, int] = {}
    samples = []
    for conn, index, op, line in sorted(kept, key=lambda item: (item[0], item[1])):
        if op.kind == "pin":
            pinned[conn] = parse_ok(line)["epoch"]
        elif op.kind == "unpin":
            pinned.pop(conn, None)
        elif op.kind == "read" and op.data is not None and conn in pinned:
            verb, name = op.data
            samples.append((pinned[conn], verb, name, line))
    return samples


def spread(samples, limit: int):
    """At most *limit* samples, evenly spaced over the run."""
    if len(samples) <= limit:
        return list(samples)
    step = len(samples) / limit
    return [samples[math.floor(i * step)] for i in range(limit)]


def _decode_value(data):
    """A tagged wire value as a plain Python atom, tuple or frozenset."""
    kind = data["kind"]
    if kind == "atom":
        return data["value"]
    items = [_decode_value(item) for item in data["items"]]
    return tuple(items) if kind == "tuple" else frozenset(items)


def reply_rows(payload) -> tuple[set, int]:
    """The rows of a decoded ``relation`` or ``instance`` reply as a set of
    tuples, and the number of rows the reply listed (more than the set
    holds when a row is repeated)."""
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind == "relation":
        listed = payload["rows"]
        rows = {tuple(row) for row in listed}
    elif kind == "instance":
        listed = payload["values"]
        values = (_decode_value(value) for value in listed)
        rows = {value if isinstance(value, tuple) else (value,) for value in values}
    else:
        raise ValueError(f"not a relation or instance reply: kind {kind!r}")
    return rows, len(listed)


def differs(line: bytes, expected: set) -> bool:
    """Whether a reply's rows are not exactly *expected* (a set of tuples)."""
    try:
        rows, listed = reply_rows(parse_ok(line))
    except (ValueError, KeyError, TypeError):
        return True
    return listed != len(rows) or rows != expected


def expected_read(workload, snapshot, verb: str, name: str) -> set:
    """The legacy evaluator's answer to one read, as a set of tuples."""
    from repro.algebra.evaluation import evaluate_expression_legacy
    from repro.relational.relation import Relation

    if verb == "GET":
        result = snapshot.instance(name)
    else:
        expression = workload.queries().get(name) or workload.views()[name]
        result = evaluate_expression_legacy(expression, snapshot)
    if not isinstance(result, Relation):
        result = Relation.from_instance(result)
    return set(result.tuples)


def check_reads(workload, base_rows: dict, writes, samples) -> tuple[list[str], int]:
    """Sampled GET/VIEW/QUERY replies against the legacy evaluator over
    the replayed state at the epoch they were served at; returns the
    failures and the number of samples checked."""
    from repro.objects.instance import DatabaseInstance, Instance

    schema = workload.schema()
    failures = []
    checked = 0
    by_epoch: dict[int, list] = {}
    for epoch, verb, name, line in samples:
        by_epoch.setdefault(epoch, []).append((verb, name, line))
    for epoch, state in epoch_states(base_rows, writes, by_epoch):
        snapshot = DatabaseInstance(
            schema,
            {name: Instance(schema.type_of(name), rows) for name, rows in state.items()},
        )
        for verb, name, line in by_epoch[epoch]:
            checked += 1
            if differs(line, expected_read(workload, snapshot, verb, name)):
                failures.append(f"{verb} {name} at epoch {epoch} differs from the legacy evaluator")
    return failures, checked


def transitive_closure(pairs) -> set:
    closure = set(pairs)
    while True:
        step = {(a, d) for a, b in closure for c, d in closure if b == c} - closure
        if not step:
            return closure
        closure |= step


def check_calc(par_rows, lines) -> list[str]:
    """Every distinct CALC reply against a plain-Python closure of PAR."""
    expected = transitive_closure(par_rows)
    return [
        "CALC answer differs from the transitive closure of PAR"
        for line in set(lines)
        if differs(line, expected)
    ]


def check_recovered(database, state: dict, effective: int) -> list[str]:
    """The recovered database against the acknowledged state."""
    from repro.relational.relation import Relation

    failures = []
    if database.current_epoch != effective:
        failures.append(f"recovered epoch {database.current_epoch} != {effective} acknowledged")
    for name, rows in state.items():
        if set(Relation.from_instance(database.instance(name)).tuples) != rows:
            failures.append(f"recovered {name} differs from the acknowledged state")
    return failures
