"""Check that the benchmark's output check catches wrong outputs.

    python3 perfbench/selftest.py

Runs pass 0 of ``family-small`` at the default seed against the recorded
outputs with one value planted wrong: exactly that command must fail, so
``fail_frac`` is above 0 while the other commands still match.  Then feeds
outputs that break the paper's statements to the checker directly.
"""

from __future__ import annotations

import copy
import json
import sys

import run
import workloads as wl


def main() -> int:
    pkg = run.load_package()
    recorded = json.loads(run.RECORDED.read_text())
    q = wl.pass_seed(run.DEFAULT_SEED, 0)
    cmds = wl.commands("family-small", q, run.OUT)
    key = wl.recorded_key(cmds[0])
    if key not in recorded:
        sys.exit(f"selftest: no recorded output for {key}")

    planted = copy.deepcopy(recorded)
    planted[key]["members"][0]["fat_values"][-1] += 1
    times, failures = run.run_pass(pkg, "family-small", q, planted)
    fail_frac = len(failures) / len(times)
    if len(failures) != 1 or key not in failures[0]:
        sys.exit(f"selftest: planted value gave failures {failures}")
    print(f"planted value: fail_frac = {fail_frac} ({failures[0]})")

    verify_cmd = wl.commands("verify", q, run.OUT)[0]
    good = recorded[wl.recorded_key(verify_cmd)]
    cases = [
        (verify_cmd, 0, dict(good, matches=False)),
        (verify_cmd, 0, dict(good, asserted=False)),
        (verify_cmd, 0, dict(good, ri=good["ri"] + 1)),
        (verify_cmd, 1, good),
        (cmds[0], 0, dict(recorded[key], probe_ok=False)),
        (cmds[0], 0, None),
    ]
    if wl.paper_problems(verify_cmd, 0, good) or wl.paper_problems(cmds[0], 0, recorded[key]):
        sys.exit("selftest: a recorded output breaks the paper's statements")
    for cmd, code, payload in cases:
        if not wl.paper_problems(cmd, code, payload):
            sys.exit(f"selftest: not caught: exit {code}, output {payload}")
    print(f"paper rules: {len(cases)} broken outputs caught")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
