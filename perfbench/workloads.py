"""The benchmark's workloads: which ``fatpoints`` commands a pass runs.

A run makes several passes over one workload.  Pass ``i`` of a run at
``--seed n`` draws its inputs from the pass seed ``q = n * MAX_PASSES + i``,
so every seed has its own inputs and pass 0 at seed 0 uses seed 0 itself.
Every input goes to the CLI explicitly (seed, coordinate bound, format),
so no default or environment variable of the CLI can change what is run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

MAX_PASSES = 64

# (type, m): the paper's identity is checked at t* = m * d_s - 1.
VERIFY_LADDER = (
    ((1, 2, 3), 4),
    ((1, 2, 3, 4), 5),
    ((1, 2, 3, 4, 5), 6),
    ((1, 3, 4, 5), 3),
    ((3, 5, 7, 9), 3),
)
VERIFY_COORD_BOUND = 50
FAMILY_COORD_BOUND = 20
FAMILY_SMALL_PER_PASS = 5

WORKLOADS = ("verify", "family", "family-small")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what the paper says its output must show."""

    argv: tuple[str, ...]
    kind: str  # "verify" or "family"
    m: int
    ds: int  # largest subset size d_s of the configuration's type


def pass_seed(seed: int, index: int) -> int:
    return seed * MAX_PASSES + index


def _config_path(workdir: Path, ktype, q: int) -> Path:
    return workdir / f"verify-{'-'.join(map(str, ktype))}-q{q}.json"


def prepare(workload: str, q: int, workdir: Path) -> list[tuple[str, ...]]:
    """CLI commands that write the inputs of pass seed q (untimed)."""
    if workload != "verify":
        return []
    return [
        (
            "generate",
            "--type", ",".join(map(str, ktype)),
            "--seed", str(q),
            "--coord-bound", str(VERIFY_COORD_BOUND),
            "--output", str(_config_path(workdir, ktype, q)),
        )
        for ktype, _ in VERIFY_LADDER
    ]


def commands(workload: str, q: int, workdir: Path) -> list[Command]:
    """The timed commands of pass seed q."""
    if workload == "verify":
        return [
            Command(
                (
                    "verify",
                    "--config", str(_config_path(workdir, ktype, q)),
                    "--m", str(m),
                    "--ri",
                    "--format", "json",
                ),
                "verify", m, ktype[-1],
            )
            for ktype, m in VERIFY_LADDER
        ]
    if workload == "family":
        return [_family(4, 5, q)]
    if workload == "family-small":
        first = FAMILY_SMALL_PER_PASS * q
        return [_family(3, 4, first + k) for k in range(FAMILY_SMALL_PER_PASS)]
    raise ValueError(f"unknown workload {workload!r}")


def _family(s: int, m: int, seed: int) -> Command:
    argv = (
        "family",
        "--s", str(s),
        "--m", str(m),
        "--seed", str(seed),
        "--coord-bound", str(FAMILY_COORD_BOUND),
        "--format", "json",
    )
    return Command(argv, "family", m, s)


def paper_problems(cmd: Command, code: int, payload) -> list[str]:
    """Ways an output breaks the paper's statements, for any seed."""
    if code != 0:
        return [f"exit code {code}"]
    if not isinstance(payload, dict):
        return ["output is not a JSON object"]
    problems = []
    if cmd.kind == "verify":
        if payload.get("matches") is not True:
            problems.append("delta does not match the line count")
        if payload.get("asserted") is not True:
            problems.append("m below the threshold m0")
        if payload.get("ri") != cmd.m * cmd.ds - 1:
            problems.append(f"ri {payload.get('ri')} != m*d_s-1 = {cmd.m * cmd.ds - 1}")
    else:
        for flag in ("supports_ok", "probe_ok", "pairwise_distinct"):
            if payload.get(flag) is not True:
                problems.append(f"family flag {flag} is not true")
    return problems


def recorded_key(cmd: Command) -> str:
    """Key of a command's output in the recorded-output file.

    Config paths differ between checkouts, so only the file name counts.
    """
    return " ".join(Path(a).name if a.endswith(".json") else a for a in cmd.argv)
