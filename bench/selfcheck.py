"""Self-check of the benchmark itself.

For each workload: two traced runs with the same seed must report
identical per-layer counts (every ``count/task`` metric and every
``*_ratio``) and identical output digests, each equal to its own
untraced digest; a run with another seed must report no failures.
Runs are one pass long (``--seconds 1``).

Usage, from the repository root:

    python3 bench/selfcheck.py
"""

import json
import pathlib
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("enclose_cli", "check_sweep", "refine_wide")


def bench(workload: str, seed: int, trace: int):
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("context "))


def check(workload: str) -> list:
    problems = []
    (a, ctx_a), (b, ctx_b) = bench(workload, 1, 1), bench(workload, 1, 1)
    other, _ = bench(workload, 2, 0)
    for name, m in a["metrics"].items():
        exact = m["unit"] == "count/task" or name.endswith("_ratio")
        if exact and m["value"] != b["metrics"][name]["value"]:
            problems.append(f"{name} differs between traced runs")
    if ctx_a["digest"] != ctx_b["digest"]:
        problems.append("digest differs between traced runs")
    for ctx in (ctx_a, ctx_b):
        if ctx["digest"] != ctx["digest_traced"]:
            problems.append("traced digest differs from the untraced one")
    for res in (a, b, other):
        if res["failed"] or not res["correct"]:
            problems.append(f"{res['failed']} of {res['attempted']} task runs failed")
    return problems


def main() -> int:
    failures = 0
    for workload in WORKLOADS:
        problems = check(workload)
        failures += bool(problems)
        print(f"{workload}: {'ok' if not problems else '; '.join(problems)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
