"""Times ``recover_database`` as a restart runs it, several times over.

Started by ``run.py`` with the library on ``PYTHONPATH``::

    python3 perfbench/recovery.py <database directory> <restarts>

Prints a JSON list of the seconds each restart's recovery took.  The
process imports every module of ``repro`` once, then forks one child per
restart; each child recovers the directory once, as the first call of a
fresh process, and reports its time.  So the time is the recovery's own
work (reading the checkpoint, replaying the log, rebuilding the
database), not the interpreter's start-up or module loading, which vary
with the host's file cache, and no restart finds caches warmed by an
earlier one.  A recovery only reads the files (the WAL's torn tail is
already gone), so every restart does the same work.  The flush policy is
the server's: fsync ``"never"``.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import sys
import time
import traceback

import repro
from repro.reliability import recover_database


def restart(directory: str) -> float:
    """Seconds of one recovery of *directory* in a forked child."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        code = 1
        try:
            start = time.perf_counter()
            database = recover_database(directory, fsync="never", log_updates=False)
            elapsed = time.perf_counter() - start
            database.close()
            os.write(write_end, repr(elapsed).encode("ascii"))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise SystemExit(f"recovery of {directory} failed (wait status {status})")
    return float(data)


def main() -> int:
    directory, restarts = sys.argv[1], int(sys.argv[2])
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    print(json.dumps([restart(directory) for _ in range(restarts)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
