"""Hand-run timings of the CLI commands that the ROADMAP gates on.

Each command runs through ``fatpoints.cli.main`` in a child process of its
own, so a ``--timeout`` can stop one that takes too long.  For each command
the output is one JSON record: wall seconds, the number of ``linalg.rank``
calls and of the span certificates and Bareiss runs that ``linalg``
started, and the sha256 of the command's standard output (equal hashes
mean byte-identical output).
Configurations are generated first and are not timed.  The file sits
outside ``tests/`` so the test suite does not collect it.  Run it with::

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
    "family s=4 m=5": (None, "family --s 4 --m 5 --seed 0 --coord-bound 20 --format json"),
    "family s=6 m=7": (None, "family --s 6 --m 7 --seed 0 --coord-bound 20 --format json"),
    # one span certificate: r = 5 at t = 21
    "family s=5 m=6": (None, "family --s 5 --m 6 --seed 0 --coord-bound 20 --format json"),
    "verify --ri (1..9)/10": (
        "1,2,3,4,5,6,7,8,9",
        "verify --config CONFIG --m 10 --ri --format json",
    ),
    "verify --ri (1..5) m=1..6": (
        "1,2,3,4,5",
        "verify --config CONFIG --m-sweep 1:6 --ri --format json",
    ),
}


def _run_one(name: str) -> dict:
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
    dvec, command = COMMANDS[name]
    with tempfile.TemporaryDirectory() as tmp:
        argv = command.split()
        if dvec is not None:
            config = str(Path(tmp) / "config.json")
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["generate", "--type", dvec, "--seed", "0",
                          "--coord-bound", "50", "-o", config])
            argv = [config if a == "CONFIG" else a for a in argv]
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        seconds = time.perf_counter() - start
    return {
        "exit": code,
        "s": round(seconds, 3),
        **counts,
        "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()[:16],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=list(COMMANDS), action="append")
    parser.add_argument("--timeout", type=float, default=None)
    parser.add_argument("--child", choices=list(COMMANDS), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(_run_one(args.child)))
        return
    results = {}
    for name in args.only or COMMANDS:
        try:
            proc = subprocess.run(
                [sys.executable, __file__, "--child", name],
                capture_output=True, text=True, timeout=args.timeout, check=True,
            )
            results[name] = json.loads(proc.stdout)
        except subprocess.TimeoutExpired:
            results[name] = {"timeout_s": args.timeout}
    print(json.dumps(results, indent=1))


if __name__ == "__main__":
    main()
