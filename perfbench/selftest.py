"""Self-test of the benchmark at tiny sizes.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

It checks that

* every workload, untraced and traced, prints every metric that
  ``BENCHMARK.json`` names, with its unit, a correct result and no
  failed request;
* the same seed yields the same base and request scripts, and another
  seed different ones;
* each oracle rejects a tampered answer: a write ack, the final base
  contents, a view value, a sampled read (bogus, or with one row
  removed), the CALC answer (empty, or with one row removed) and a lost
  acknowledged write in recovery.
"""

from __future__ import annotations

import argparse
import copy
import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.path.insert(0, str(run.SRC))

TINY = 0.02
SECONDS = 1.5

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def check_metrics() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        units = {metric["name"]: metric["unit"] for metric in spec[section]}
        for name in spec["workloads"]:
            completed = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"), "--workload", name["name"],
                    "--seed", "5", "--seconds", str(SECONDS), "--trace", str(trace),
                    "--scale", str(TINY),
                ],
                capture_output=True, text=True, timeout=170,
            )
            label = f"{name['name']} --trace {trace}"
            if completed.returncode != 0:
                expect(False, f"{label}: exit {completed.returncode}: {completed.stderr[-400:]}")
                continue
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            got = {metric: value["unit"] for metric, value in result["metrics"].items()}
            expect(got == units, f"{label}: emits exactly the {section} metrics with their units")
            expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{label}: correct, {result['attempted']} attempted, {result['failed']} failed",
            )


def check_scripts() -> None:
    for name, workload_class in WORKLOADS.items():
        first, again, other = (workload_class(seed, TINY) for seed in (7, 7, 8))

        def sample(workload):
            return workload.base_rows, [
                list(islice(workload.script(conn), 300)) for conn in (0, 1)
            ]

        expect(sample(first) == sample(again), f"{name}: same seed, same base and scripts")
        expect(sample(first) != sample(other), f"{name}: another seed, other base or scripts")
    query_mix = WORKLOADS["query_mix"](1, TINY)
    expect(
        sorted(query_mix.queries()) == sorted(query_mix.QUERY_NAMES),
        "query_mix: QUERY_NAMES lists the registered queries",
    )


def rejected(workload, kept, dumped, directory, reason: str) -> bool:
    """Whether the oracles fail the run, with a message naming *reason*."""
    found, _ = run.run_oracles(workload, kept, dumped, directory)
    return any(reason in message for message in found)


def _retag(kept, predicate, replace):
    return [
        (conn, index, op, replace(op, line) if predicate(op) else line)
        for conn, index, op, line in kept
    ]


def drop_row(op, line: bytes) -> bytes:
    """The reply with its last row (or value) removed."""
    payload = json.loads(line[3:])
    key = "rows" if "rows" in payload else "values"
    payload[key] = payload[key][:-1]
    return b"OK " + json.dumps(payload).encode()


def check_oracles() -> None:
    workdir = HERE / "_work" / "selftest"
    for name in ("query_mix", "calc_tc"):
        args = argparse.Namespace(workload=name, seed=3, seconds=SECONDS, trace=0, scale=TINY)
        workload = WORKLOADS[name](args.seed, args.scale)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            segment = run.serve_segment(args, workload, SECONDS, workdir / "db")
            kept, dumped, directory = segment.kept, segment.dumped, segment.directory
            found, recovery = run.run_oracles(workload, kept, dumped, directory)
            expect(not found, f"{name}: the untampered run passes every oracle {found}")
            expect(recovery["reads_checked"] > 0, f"{name}: sampled reads were checked")

            def fake_read(op, line):
                return b'OK {"arity":1,"kind":"relation","rows":[["bogus"]]}'

            tampered = _retag(kept, lambda op: op.kind == "read", fake_read)
            expect(
                rejected(workload, tampered, dumped, directory, "differs from the legacy"),
                f"{name}: a tampered read reply is rejected",
            )
            tampered = _retag(kept, lambda op: op.kind == "read", drop_row)
            expect(
                rejected(workload, tampered, dumped, directory, "differs from the legacy"),
                f"{name}: a read reply with one row removed is rejected",
            )
            if name == "calc_tc":
                def empty_answer(op, line):
                    return b'OK {"kind":"instance","type":"[U, U]","values":[]}'

                for tamper, what in ((empty_answer, "an empty"), (drop_row, "a one-row-short")):
                    tampered = _retag(kept, lambda op: op.kind == "calc", tamper)
                    expect(
                        rejected(workload, tampered, dumped, directory, "CALC answer"),
                        f"calc_tc: {what} CALC answer is rejected",
                    )
                continue

            def inflate_ack(op, line):
                ack = json.loads(line[3:])
                ack["applied"] += 1
                return b"OK " + json.dumps(ack).encode()

            writes = [item for item in kept if item[2].kind == "write"]
            expect(bool(writes), f"{name}: the run acknowledged writes")
            first = writes[0][2]
            tampered = _retag(kept, lambda op: op is first, inflate_ack)
            expect(
                rejected(workload, tampered, dumped, directory, "acked applied="),
                f"{name}: a tampered write ack is rejected",
            )
            for section, key, reason in (
                ("base", "R", "final contents of R"), ("views", "sel", "view sel")
            ):
                wrong = copy.deepcopy(dumped)
                wrong[section][key] = "0" * 64
                expect(
                    rejected(workload, kept, wrong, directory, reason),
                    f"{name}: a wrong final {section} value of {key} is rejected",
                )
            wal = directory / "wal.log"
            with open(wal, "r+b") as handle:
                handle.truncate(wal.stat().st_size - 1)
            expect(
                rejected(workload, kept, dumped, directory, "recovered"),
                f"{name}: recovery that lost an acknowledged write is rejected",
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    check_scripts()
    check_oracles()
    check_metrics()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
