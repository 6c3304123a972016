"""relival benchmark: one workload's end-to-end metrics, or its per-layer trace.

Usage, from the repository root:

    python3 bench/run.py --workload enclose_cli --seed 1 --seconds 30 --trace 0

A run builds the workload's fixed task list from the seed and runs the
whole list in passes, one task at a time from one thread (a closed loop
with a single caller), for as long as another whole pass fits in
``--seconds``; there is always at least one pass.  A task's latency is
its median over the passes.  On shared 2-vCPU virtual machines the CPU
speed can drop 1.5 to 3x for seconds to minutes at a time; the median of
many passes, each in a new order, keeps short phases out of the figures,
and every task time is scaled by a calibration timed just before it
(``calibrate.py``), which takes out the phases that outlast a run.
Pass one checks every output, and later passes must reproduce it
exactly.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
task untraced and then traced, reports the per-layer metrics and the
tracing overhead, and writes the first traced task's spans under
``bench/out/``.  Human-readable lines come first; the last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

from calibrate import calibration_s, scale

BENCH = pathlib.Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_PROBES = 15


def load_program():
    """Import relival from this checkout's ``src``, or exit nonzero."""
    package = SRC / "relival" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from the root of a relival checkout")
    sys.path.insert(0, str(SRC))
    import relival

    if pathlib.Path(relival.__file__).resolve() != package.resolve():
        sys.exit(f"error: imported relival from {relival.__file__}, not {package}")


def speed_probe_ms() -> float:
    """Best of five calibrations, in ms, as host context."""
    return min(calibration_s() for _ in range(5)) * 1e3


class SetupClock:
    """Fresh-interpreter set-up timings, spread evenly over the run."""

    def __init__(self, workload: str, seed: int, seconds: float, start: float):
        self.argv = [sys.executable, "-I", str(BENCH / "setup_probe.py"), workload, str(seed)]
        self.due = [start + k * seconds / SETUP_PROBES for k in range(SETUP_PROBES)]
        self.samples = []
        self.raw = []

    def poll(self):
        if self.due and time.perf_counter() >= self.due[0]:
            self.due.pop(0)
            self._probe()

    def finish(self):
        while self.due:
            self.due.pop(0)
            self._probe()

    def _probe(self):
        done = subprocess.run(self.argv, capture_output=True, text=True, timeout=120, check=True)
        scaled, raw = map(float, done.stdout.split())
        self.samples.append(scaled)
        self.raw.append(raw)


def timed(fn, task):
    t0 = time.perf_counter()
    try:
        outcome = fn(task)
    except Exception as exc:  # a task that raises is counted as failed
        outcome = exc
    return time.perf_counter() - t0, outcome


def examine(workload, task, outcome, full: bool):
    """(digest text, evaluations, problem or None); ``full`` runs the checks."""
    try:
        if isinstance(outcome, Exception):
            raise outcome
        text, evals = workload.describe(task, outcome)
        return text, evals, workload.check(task, outcome) if full else None
    except Exception as exc:
        return None, 0, "".join(traceback.format_exception(exc)).strip()


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(("<failed>" if t is None else t).encode())
        h.update(b"\x1e")
    return h.hexdigest()


def run(workload, seed: int, seconds: float, trace: bool):
    start = time.perf_counter()
    deadline = start + seconds
    clock = None if trace else SetupClock(workload.name, seed, seconds, start)
    if clock:
        clock.poll()
    tasks = workload.setup(workload.inputs(seed))
    n = len(tasks)
    times = [[] for _ in range(n)]  # scaled to the reference host
    raw_times = [[] for _ in range(n)]
    texts, traced_texts, evals = [None] * n, [None] * n, [0] * n
    untraced_s = traced_s = 0.0
    attempted = failed = passes = 0
    problems = []
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        traced_run = tracer.span("bench.task", workload.run)
    order = list(range(n))
    while True:
        pass_start = time.perf_counter()
        for i in order:
            task = tasks[i]
            if clock:
                clock.poll()
            attempted += 1
            calibration = None if trace else calibration_s()
            dt, outcome = timed(workload.run, task)
            raw_times[i].append(dt)
            if calibration:
                times[i].append(scale(dt, calibration))
            text, ev, problem = examine(workload, task, outcome, passes == 0)
            if passes == 0:
                texts[i], evals[i] = text, ev
            elif problem is None and text != texts[i]:
                problem = "result differs from the first pass"
            if trace:
                tracer.recording = passes == 0 and i == 0
                with tracer.installed():
                    dt_traced, outcome = timed(traced_run, task)
                traced_text, _, traced_problem = examine(workload, task, outcome, False)
                traced_texts[i] = traced_text
                if problem is None and traced_problem is not None:
                    problem = f"traced run: {traced_problem}"
                elif problem is None and traced_text != text:
                    problem = "traced result differs from the untraced one"
                untraced_s += dt
                traced_s += dt_traced
            if problem is not None:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"{workload.name} seed {seed} task {i}: {problem}")
        passes += 1
        now = time.perf_counter()
        if now + (now - pass_start) > deadline:
            break
        # a new order each pass, so no task keeps meeting the same slow phase
        random.Random(passes).shuffle(order)
    context = {"tasks": n, "passes": passes, "digest": digest(texts)}
    if trace:
        metrics = tracer.metrics(passes * n)
        metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
        context["digest_traced"] = digest(traced_texts)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}-seed{seed}.tsv"
        tracer.write_spans(spans_path)
        context["spans"] = str(spans_path.relative_to(BENCH.parent))
    else:
        clock.finish()
        latency = [statistics.median(t) for t in times]
        ms = [t * 1e3 for t in latency]
        raw_ms = [statistics.median(t) * 1e3 for t in raw_times]
        metrics = {
            "task_ms_p50": (statistics.median(ms), "ms"),
            "task_ms_p90": (statistics.quantiles(ms, n=10)[-1], "ms"),
            "evals_per_s": (sum(evals) / sum(latency), "1/s"),
            "setup_s": (statistics.median(clock.samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        context["setup_samples"] = len(clock.samples)
        context["raw_task_ms_p50"] = statistics.median(raw_ms)
        context["raw_setup_s"] = statistics.median(clock.raw)
    return metrics, context, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    probe_start = speed_probe_ms()
    metrics, context, attempted, failed, problems = run(
        workload, args.seed, args.seconds, bool(args.trace)
    )
    context = {
        "workload": workload.name,
        "seed": args.seed,
        **context,
        "fail_ratio": failed / attempted,
        "probe_start_ms": probe_start,
        "probe_end_ms": speed_probe_ms(),
        "python": platform.python_version(),
    }
    for p in problems:
        print(p, file=sys.stderr)
    print(f"# {workload.name} seed {args.seed}: {context['tasks']} tasks x {context['passes']} passes")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} task runs)")
    print("context " + json.dumps(context))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
