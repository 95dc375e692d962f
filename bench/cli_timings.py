"""Hand-run timings of the CLI commands that the ROADMAP gates on.

Each command runs through ``fatpoints.cli.main`` in a child process of its
own, so a ``--timeout`` can stop one that takes too long.  For each command
the output is one JSON record: ``s``, the wall seconds of the ``main`` call
inside the child; ``process_s``, the child's wall seconds from spawn to
exit, which take in the interpreter start, the imports and anything
``main`` loads on its first call; the number of ``linalg.rank`` calls and
of the span certificates and Bareiss runs that ``linalg`` started; and the
sha256 of the command's standard output (equal hashes mean byte-identical
output).  A ``cold`` command runs as a bare ``python -m fatpoints`` process
(``-m fatpoints.cli`` in a checkout without ``fatpoints/__main__.py``), so
its record has only the exit code, ``process_s`` and the hash.
Configurations are generated first, in this process, and are not timed.
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
import hashlib
import importlib.util
import io
import json
import subprocess
import sys
import tempfile
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
    "cold python -m fatpoints verify --ri (1..5)/6": (
        "1,2,3,4,5",
        "verify --config CONFIG --m 6 --ri --format json",
    ),
}
# Commands run as a bare interpreter on the package, with nothing around main.
COLD = {"cold python -m fatpoints verify --ri (1..5)/6"}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run_one(argv: list[str]) -> dict:
    from fatpoints import cli, linalg

    counts = {"ranks": 0, "certificates": 0, "bareiss": 0}

    def counted(key, func):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)

        return wrapper

    linalg.rank = counted("ranks", linalg.rank)
    linalg._span_certificate = counted("certificates", linalg._span_certificate)
    linalg.bareiss_rank = counted("bareiss", linalg.bareiss_rank)
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    return {"exit": code, "s": round(seconds, 3), **counts, "sha256": _sha256(out.getvalue())}


def _generate(names, tmp: str) -> dict[str, str]:
    """Configuration file per type of the named commands (seed 0, bound 50)."""
    from fatpoints import cli

    configs = {}
    for name in names:
        dvec = COMMANDS[name][0]
        if dvec is not None and dvec not in configs:
            configs[dvec] = str(Path(tmp) / f"config{len(configs)}.json")
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["generate", "--type", dvec, "--seed", "0",
                          "--coord-bound", "50", "-o", configs[dvec]])
    return configs


def _spawn(name: str, configs: dict[str, str], timeout: float | None) -> dict:
    """One command in a child process, timed from spawn to exit."""
    dvec, command = COMMANDS[name]
    argv = [configs[dvec] if a == "CONFIG" else a for a in command.split()]
    if name in COLD:
        entry = "fatpoints" if importlib.util.find_spec("fatpoints.__main__") else "fatpoints.cli"
        child = [sys.executable, "-m", entry, *argv]
    else:
        child = [sys.executable, __file__, "--child", json.dumps(argv)]
    start = time.perf_counter()
    proc = subprocess.run(child, capture_output=True, text=True, timeout=timeout,
                          check=name not in COLD)
    seconds = time.perf_counter() - start
    if name in COLD:
        record = {"exit": proc.returncode, "sha256": _sha256(proc.stdout)}
    else:
        record = json.loads(proc.stdout)
    record["process_s"] = round(seconds, 3)
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
    print(json.dumps(results, indent=1))


if __name__ == "__main__":
    main()
