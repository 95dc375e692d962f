"""Benchmark of the paper's checks, run through ``fatpoints.cli.main``.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 40 --trace 0

One process and one thread run the workload's CLI commands in sequence
(a closed loop with one client), pass after pass, until ``--seconds``
have passed; the pass running then is finished.  Every command's output is checked.  The
last line of standard output is the result object; with ``--trace 0`` it
holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
one extra traced pass.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
RECORDED = HERE / "expected.json"

DEFAULT_SEED = 0
HELD_OUT_SEED = 2
SETUP_PROBES = 7


def load_package():
    """Import ``fatpoints`` from this checkout's ``src``, never from elsewhere.

    ``fatpoints`` makes no BLAS calls, so BLAS gets one thread: the worker
    threads it would start when numpy is imported only add scheduling
    noise to the set-up time on a small shared host.
    """
    if not (SRC / "fatpoints" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fatpoints sources under {SRC}")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import fatpoints
    import fatpoints.cli

    if Path(fatpoints.__file__).resolve().parent != SRC / "fatpoints":
        sys.exit(f"perfbench: imported fatpoints from {fatpoints.__file__}")
    return fatpoints


def call_cli(pkg, argv) -> tuple[int, str, float]:
    """Run one CLI command in-process; returns exit code, stdout, seconds.

    ``pkg.cli.main`` is looked up on each call so a tracer's wrapper is used.
    """
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = pkg.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), time.perf_counter() - start


def prepare(pkg, workload: str, q: int) -> None:
    """Write the inputs of pass seed q (for ``verify``, its configurations)."""
    OUT.mkdir(exist_ok=True)
    for argv in wl.prepare(workload, q, OUT):
        code, _, _ = call_cli(pkg, argv)
        if code != 0:
            raise RuntimeError(f"input generation failed: {' '.join(argv)}")


def run_pass(pkg, workload: str, q: int, recorded: dict, tracer=None):
    """Run and check every command of pass seed q.

    Returns (seconds per command, failure messages).  Seconds cover the
    CLI call only, not the output check.
    """
    times, failures = [], []
    for idx, cmd in enumerate(wl.commands(workload, q, OUT)):
        if tracer is not None:
            tracer.command = f"q{q}.{idx}"
        try:
            code, text, seconds = call_cli(pkg, cmd.argv)
        except Exception as exc:  # a crash is a failed command, not a failed run
            times.append(0.0)
            failures.append(f"{' '.join(cmd.argv)}: raised {type(exc).__name__}: {exc}")
            continue
        times.append(seconds)
        try:
            payload = json.loads(text)
        except ValueError:
            payload = None
        problems = wl.paper_problems(cmd, code, payload)
        key = wl.recorded_key(cmd)
        if key in recorded and payload != recorded[key]:
            problems.append("output differs from the recorded output")
        if problems:
            failures.append(f"{key}: {'; '.join(problems)}")
    return times, failures


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Process start to first command, in a fresh interpreter."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


def setup_probe(workload: str, seed: int) -> int:
    pkg = load_package()
    prepare(pkg, workload, wl.pass_seed(seed, 0))
    print(time.monotonic())
    return 0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def stamp(pkg, workload: str, seed: int, trace: int) -> dict:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "bigint": "int" if pkg.linalg.mpz is int else "gmpy2",
        "nproc": nproc,
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


def traced_pass(pkg, workload: str, q: int, recorded: dict):
    """One traced pass (inputs regenerated under the tracer too)."""
    tracer = spans.Tracer()
    tracer.install(pkg)
    try:
        with tracer.region("bench.traced") as root:
            tracer.command = "prepare"
            with tracer.region("bench.prepare"):
                prepare(pkg, workload, q)
            with tracer.region("bench.pass"):
                times, failures = run_pass(pkg, workload, q, recorded, tracer)
    finally:
        tracer.uninstall()
    return tracer, root, times, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    pkg = load_package()
    recorded = json.loads(RECORDED.read_text())
    setups = [setup_probe_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    passes = []  # (q, seconds per command)
    failures: list[str] = []
    start, cpu_start = time.perf_counter(), time.process_time()
    while True:
        q = wl.pass_seed(args.seed, len(passes))
        prepare(pkg, args.workload, q)
        times, failed = run_pass(pkg, args.workload, q, recorded)
        passes.append((q, times))
        failures += failed
        if len(passes) >= wl.MAX_PASSES or time.perf_counter() - start >= args.seconds:
            break
    cpu_per_pass = (time.process_time() - cpu_start) / len(passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = sum(len(t) for _, t in passes)

    info = stamp(pkg, args.workload, args.seed, args.trace)
    info["passes"] = len(passes)
    if args.trace == 0:
        metrics = {
            "wall_s": (statistics.fmean(sum(t) for _, t in passes), "s"),
            "max_op_s": (statistics.fmean(max(t) for _, t in passes), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        report = {"stamp": info, "setup_probes_s": setups,
                  "pass_seconds": {q: t for q, t in passes}}
        self_sum_ok = True
    else:
        q0, untraced = passes[0]
        tracer, root, times, failed = traced_pass(pkg, args.workload, q0, recorded)
        failures += failed
        attempted += len(times)
        wall = root["end"] - root["start"]
        self_sum = sum(spans.self_times(tracer.spans))
        self_sum_ok = abs(self_sum - wall) <= 1e-9 * max(wall, 1.0)
        if not self_sum_ok:
            print(f"perfbench: self times sum to {self_sum} s, traced wall is {wall} s",
                  file=sys.stderr)
        pass_cmds = {s["cmd"] for s in tracer.spans if s["name"] == "cli.main"} - {"prepare"}
        metrics = spans.layer_metrics(tracer.spans, pass_cmds)
        metrics["ops"] = (attempted, "count")
        metrics["fail_frac"] = (len(failures) / attempted, "ratio")
        metrics["proc.cpu_s"] = (cpu_per_pass, "s")
        metrics["trace.wall_s"] = (wall, "s")
        metrics["trace.overhead_frac"] = (sum(times) / sum(untraced) - 1, "ratio")
        table = spans.layer_table(tracer.spans)
        print(f"{'layer':<28}{'calls':>7}{'incl_s':>10}{'self_s':>10}{'self%':>7}")
        for row in table:
            print(f"{row['layer']:<28}{row['calls']:>7}{row['s']:>10.3f}"
                  f"{row['self_s']:>10.3f}{100 * row['self_s'] / wall:>6.1f}%")
        report = {"stamp": info, "layers": table, "spans": tracer.spans}

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report["metrics"] = {k: v for k, (v, _) in metrics.items()}
    report["failures"] = failures
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")

    for msg in failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({"stamp": info}))
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value} {unit}")
    result = {
        "correct": not failures and self_sum_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
