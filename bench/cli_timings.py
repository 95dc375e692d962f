"""Hand-run timings of the CLI commands that the ROADMAP gates on.

Each command runs through ``fatpoints.cli.main`` in a child process of its
own, so a ``--timeout`` can stop one that takes too long.  For each command
the output is one JSON record: ``s``, the wall seconds of the ``main`` call
inside the child; ``process_s``, the child's wall seconds from spawn to
exit, which take in the interpreter start, the imports and anything
``main`` loads on its first call; the number of ``linalg.rank`` calls and
of the span certificates and Bareiss runs that ``linalg`` started;
``values``, the number of ``hilbert.hilbert_value`` calls; and the
sha256 of the command's standard output (equal hashes mean byte-identical
output); and ``peak_rss_mb``, the child's peak resident memory (its
``ru_maxrss`` from ``os.wait4``).  A ``cold`` command runs as a bare
``python -m fatpoints`` process (``-m fatpoints.cli`` in a checkout without
``fatpoints/__main__.py``), so its record has only the exit code,
``process_s``, ``peak_rss_mb`` and the hash; the other children also hold
this script's own imports.  Linux starts a child's ``ru_maxrss`` at the
peak of the process that spawned it, so this process imports neither
``fatpoints`` nor ``hashlib`` before its last child exits: configurations
are generated first, in child processes that are not timed, and outputs
are hashed at the end.
The file sits outside ``tests/`` so the test suite does not collect it.
Run it with::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<checkout>/src python bench/cli_timings.py \\
        [--only NAME] [--timeout SECONDS]

It uses only names that older checkouts have too, so pointing
``PYTHONPATH`` at another checkout's ``src`` times that checkout on the
same commands.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

# name -> (configuration to generate or None, command); CONFIG is replaced
# by the generated file.
COMMANDS = {
    "hilbert (1..5)/6 t<=30": (
        "1,2,3,4,5",
        "hilbert --config CONFIG --m 6 --t-max 30 --format json",
    ),
    # the command of the family-small benchmark workload at pass seed 0
    "family s=3 m=4": (None, "family --s 3 --m 4 --seed 0 --coord-bound 20 --format json"),
    "family s=4 m=5": (None, "family --s 4 --m 5 --seed 0 --coord-bound 20 --format json"),
    "family s=6 m=7": (None, "family --s 6 --m 7 --seed 0 --coord-bound 20 --format json"),
    # one span certificate: r = 5 at t = 21
    "family s=5 m=6": (None, "family --s 5 --m 6 --seed 0 --coord-bound 20 --format json"),
    # the largest rung of the verify benchmark workload
    "verify --ri (3,5,7,9)/3": (
        "3,5,7,9",
        "verify --config CONFIG --m 3 --ri --format json",
    ),
    "verify --ri (1..9)/10": (
        "1,2,3,4,5,6,7,8,9",
        "verify --config CONFIG --m 10 --ri --format json",
    ),
    "verify --ri (1..5) m=1..6": (
        "1,2,3,4,5",
        "verify --config CONFIG --m-sweep 1:6 --ri --format json",
    ),
    # the nine-point line of the largest verify rung, read off the incidence
    "count-lines --k 9 (3,5,7,9)": (
        "3,5,7,9",
        "count-lines --config CONFIG --k 9 --format json",
    ),
    # bound 2 reaches 8 points on a line: refused before any draw
    "generate --type 9 --coord-bound 2": (None, "generate --type 9 --seed 0 --coord-bound 2"),
    # a large bound: the guard counts the points of a line only up to the
    # 3 it needs, so nothing before the first draw grows with the bound
    "generate --type 1,2,3 --coord-bound 3000": (
        None,
        "generate --type 1,2,3 --seed 0 --coord-bound 3000",
    ),
    # the verify ladder's largest input: 24 generic points, each tested
    # against its joins to the points placed before it
    "generate --type 3,5,7,9 --coord-bound 50": (
        None,
        "generate --type 3,5,7,9 --seed 0 --coord-bound 50",
    ),
    # a star: every point is a forced meet, so no join is computed
    "generate --type 1..6 --r 7 --coord-bound 20": (
        None,
        "generate --type 1,2,3,4,5,6 --r 7 --seed 0 --coord-bound 20",
    ),
    "cold python -m fatpoints verify --ri (1..5)/6": (
        "1,2,3,4,5",
        "verify --config CONFIG --m 6 --ri --format json",
    ),
}
# Commands run as a bare interpreter on the package, with nothing around main.
COLD = {"cold python -m fatpoints verify --ri (1..5)/6"}


def _sha256(text: str) -> str:
    import hashlib  # loads OpenSSL: only after the last child has exited

    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run_one(argv: list[str]) -> dict:
    from fatpoints import cli, hilbert, linalg

    counts = {"ranks": 0, "values": 0, "certificates": 0, "bareiss": 0}

    def counted(key, func):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)

        return wrapper

    linalg.rank = counted("ranks", linalg.rank)
    hilbert.hilbert_value = counted("values", hilbert.hilbert_value)
    linalg._span_certificate = counted("certificates", linalg._span_certificate)
    linalg.bareiss_rank = counted("bareiss", linalg.bareiss_rank)
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    return {"exit": code, "s": round(seconds, 3), **counts, "stdout": out.getvalue()}


def _entry() -> list[str]:
    """``python -m`` of the package, found without importing it."""
    package = Path(importlib.util.find_spec("fatpoints").origin).parent
    module = "fatpoints" if (package / "__main__.py").exists() else "fatpoints.cli"
    return [sys.executable, "-m", module]


def _generate(names, tmp: str) -> dict[str, str]:
    """Configuration file per type of the named commands (seed 0, bound 50)."""
    configs = {}
    for name in names:
        dvec = COMMANDS[name][0]
        if dvec is not None and dvec not in configs:
            configs[dvec] = str(Path(tmp) / f"config{len(configs)}.json")
            subprocess.run([*_entry(), "generate", "--type", dvec, "--seed", "0",
                            "--coord-bound", "50", "-o", configs[dvec]], check=True)
    return configs


def _spawn(name: str, configs: dict[str, str], timeout: float | None) -> dict:
    """One command in a child process, timed from spawn to exit.  The child
    is reaped with ``os.wait4``, which also gives its resource usage."""
    dvec, command = COMMANDS[name]
    argv = [configs[dvec] if a == "CONFIG" else a for a in command.split()]
    if name in COLD:
        child = [*_entry(), *argv]
    else:
        child = [sys.executable, __file__, "--child", json.dumps(argv)]
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(child, stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill) if timeout else None
        if killer:
            killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if killer:
            killer.cancel()
            if seconds >= timeout:
                raise subprocess.TimeoutExpired(child, timeout)
        out.seek(0)
        stdout = out.read()
        if proc.returncode and name not in COLD:
            err.seek(0)
            raise subprocess.CalledProcessError(proc.returncode, child, stdout, err.read())
    if name in COLD:
        record = {"exit": proc.returncode, "stdout": stdout}
    else:
        record = json.loads(stdout)
    record["process_s"] = round(seconds, 3)
    record["peak_rss_mb"] = round(usage.ru_maxrss / 1024, 2)  # Linux: kilobytes
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=list(COMMANDS), action="append")
    parser.add_argument("--timeout", type=float, default=None)
    parser.add_argument("--child", type=json.loads, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(_run_one(args.child)))
        return
    names = args.only or list(COMMANDS)
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        configs = _generate(names, tmp)
        for name in names:
            try:
                results[name] = _spawn(name, configs, args.timeout)
            except subprocess.TimeoutExpired:
                results[name] = {"timeout_s": args.timeout}
    for record in results.values():
        if "stdout" in record:
            record["sha256"] = _sha256(record.pop("stdout"))
    print(json.dumps(results, indent=1))


if __name__ == "__main__":
    main()
