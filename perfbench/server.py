"""The benchmark's server process: one ``DatabaseServer`` over a durable base.

Started by ``run.py``; not meant to be run by hand.  It builds the
workload's base from the seed, hands it to ``create_durable_database``
(checkpoint-0, fsync ``"never"``), materializes the workload's views,
registers its engine queries, warms every read path once, starts the
server on a free port and prints ``READY <port>``.  Base data cannot go
over the wire: the server reads request lines of at most 64 KiB.

The launcher then talks to it over stdin/stdout, one line each way:

``TRACE ON``   install the outside-in span wrappers (``--trace 1`` only)
``TRACE OFF``  remove them; answers the span summary as JSON
``DUMP``       answers the epoch and digests of the base and view
               contents as JSON
``STOP``       stop serving and exit
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402


def rows_digest(rows) -> str:
    """Order-independent digest of a set of flat rows (shared with the oracles)."""
    data = json.dumps(sorted(list(row) for row in rows), separators=(",", ":"))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def build(workload, directory):
    """The durable database, its views and the registered queries."""
    from repro.reliability import create_durable_database

    database = create_durable_database(
        workload.schema(),
        workload.base_rows,
        directory=directory,
        fsync="never",
        log_updates=False,
    )
    for name, expression in workload.views().items():
        database.views.define_relational(name, expression)
    return database, workload.queries()


def warm_up(database, queries, workload) -> None:
    """Run every read path once so that READY means plans are compiled
    and view values are built."""
    from repro.algebra.evaluation import evaluate_expression
    from repro.calculus.evaluation import evaluate_query
    from repro.calculus.parser import parse_query
    from repro.serving.protocol import encode_ok, encode_result

    snapshot = database.snapshot()
    for name in database.views.names():
        encode_ok(encode_result(database.views.view(name).value()))
    for expression in queries.values():
        encode_ok(encode_result(evaluate_expression(expression, snapshot)))
    text = workload.calc_text()
    if text is not None:
        encode_ok(encode_result(evaluate_query(parse_query(text, database.schema), snapshot)))


def dump(database) -> dict:
    """The final state, for the oracles: epoch plus base and view digests."""
    from repro.relational.relation import Relation

    return {
        "epoch": database.current_epoch,
        "base": {
            name: rows_digest(Relation.from_instance(database.instance(name)).tuples)
            for name in database.schema.predicate_names
        },
        "views": {
            name: rows_digest(database.views.view(name).value().tuples)
            for name in database.views.names()
        },
    }


async def serve(database, queries, tracer) -> None:
    from repro.serving import DatabaseServer

    server = DatabaseServer(database, queries=queries)
    await server.start()
    loop = asyncio.get_running_loop()
    print(f"READY {server.port}", flush=True)
    try:
        while True:
            command = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
            if command in ("", "STOP"):
                break
            if command == "TRACE ON" and tracer is not None:
                tracer.install()
                reply = "OK"
            elif command == "TRACE OFF" and tracer is not None:
                tracer.uninstall()
                reply = json.dumps(tracer.summary())
            elif command == "DUMP":
                reply = json.dumps(dump(database))
            else:
                reply = json.dumps({"error": f"unknown command {command!r}"})
            print(reply, flush=True)
    finally:
        await server.stop()
        database.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.scale)
    tracer = None
    if args.trace:
        from tracing import Tracer, install_session_marker

        install_session_marker()
        tracer = Tracer()
    database, queries = build(workload, args.dir)
    warm_up(database, queries, workload)
    asyncio.run(serve(database, queries, tracer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
