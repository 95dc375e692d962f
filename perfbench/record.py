"""Record the exact outputs that run.py compares every command's output with.

    python3 perfbench/record.py --workload verify --passes 8

Runs the first ``--passes`` passes of the workload at the default and the
held-out seed and stores each command's JSON output in expected.json,
keyed by the command line.  An output that breaks the paper's statements
is refused.  Run it only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads as wl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--passes", type=int, default=8)
    args = parser.parse_args(argv)

    pkg = run.load_package()
    found = {}
    for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
        for index in range(args.passes):
            q = wl.pass_seed(seed, index)
            run.prepare(pkg, args.workload, q)
            for cmd in wl.commands(args.workload, q, run.OUT):
                code, text, _ = run.call_cli(pkg, cmd.argv)
                payload = json.loads(text)
                problems = wl.paper_problems(cmd, code, payload)
                if problems:
                    sys.exit(f"{' '.join(cmd.argv)}: {'; '.join(problems)}")
                found[wl.recorded_key(cmd)] = payload
    # Re-read just before writing so recorders of other workloads can run alongside.
    recorded = json.loads(run.RECORDED.read_text())
    recorded.update(found)
    entries = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(recorded.items())]
    run.RECORDED.write_text("{\n" + ",\n".join(entries) + "\n}\n")
    print(f"recorded {len(found)} outputs of {args.workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
