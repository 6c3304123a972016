"""Record the benchmark at given commits: one ``BENCH_<pr>.json`` each, beside this file.

Each commit is extracted with ``git archive`` into a work directory and
byte-compiled (``python -m compileall``: a tree with stale or missing
bytecode reads imports slower).  Then its own benchmark runs there,

    python bench/run.py --workload W --seed 1 --seconds 35

for every workload, workload by workload over all the commits, the
commit order reversed on every other workload, so that a slow phase of
the host does not fall on the same commits each time.  A file holds, per
workload, the run's final JSON line, its digest, the two calibration
probes and the Python version, with the commit, its ``src`` tree, the
seed and ``--seconds``.  Run from the repository root:

    python trajectory/record.py WORKDIR PR=REV [PR=REV ...]

Each commit is extracted to ``WORKDIR/PR``, which must not exist yet.

A ``REV`` made with ``git stash create`` records a change not yet
committed; its file then names no commit, only its ``src`` tree, which
the commit that takes the change will share.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("enclose_cli", "check_sweep", "refine_wide")
SEED, SECONDS = 1, 35


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=HERE.parent, check=True, capture_output=True, text=True).stdout


def _extract(rev: str, tree: Path) -> None:
    tree.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=HERE.parent, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree)], check=True, capture_output=True)


def _run(tree: Path, workload: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS)]
    out = subprocess.run(argv, cwd=tree, env=env, check=True, capture_output=True, text=True).stdout.splitlines()
    context = json.loads(next(line for line in out if line.startswith("context "))[len("context "):])
    return {
        "result": json.loads(out[-1]),
        "digest": context["digest"],
        "probe_start_ms": context["probe_start_ms"],
        "probe_end_ms": context["probe_end_ms"],
        "python": context["python"],
        "context": context,
    }


def main(argv) -> int:
    work, points = Path(argv[0]), [p.split("=", 1) for p in argv[1:]]
    records = {}
    for pr, rev in points:
        commit = _git("rev-parse", rev).strip()
        stashed = len(_git("rev-list", "--parents", "-n", "1", commit).split()) > 2  # a stash has two parents
        records[pr] = {
            "pr": int(pr),
            "commit": None if stashed else commit,
            "src_tree": _git("rev-parse", f"{commit}:src").strip(),
            "seed": SEED,
            "seconds": SECONDS,
            "workloads": {},
        }
        _extract(commit, work / pr)
    for k, workload in enumerate(WORKLOADS):
        for pr, _ in points if k % 2 == 0 else points[::-1]:
            records[pr]["workloads"][workload] = run = _run(work / pr, workload)
            (HERE / f"BENCH_{pr}.json").write_text(json.dumps(records[pr], indent=1) + "\n")
            print(pr, workload, run["digest"][:8], run["result"]["metrics"]["task_ms_p50"]["value"], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
