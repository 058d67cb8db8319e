"""Benchmark for the ``lambdah`` command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it imports lambdah from
``src/``.  Workloads: curated-corpus, check-suite, trace-roundtrip (see
perfbench/README.md).

With ``--trace 0`` this process starts the workload several times in
fresh interpreters that only set up (interpreter start, ``import
lambdah``, input preparation) and report how long that took, then once
more for the measurement itself: whole passes of the workload's command
until ``S`` seconds have gone, each pass's output checked.  It prints
every end-to-end metric by name and unit, and as its last line one
JSON object with the operations (passes) attempted and failed.

With ``--trace 1`` the workload process runs one plain pass and one
pass with every layer boundary wrapped, writes the spans and counters
to perfbench/work/, and prints every per-layer metric instead.

The exit status is 0 only when every pass printed what the checks
expect.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("curated-corpus", "check-suite", "trace-roundtrip")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "pass_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=int, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------- the workload process ----------


def _child(args) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import lambdah.cli  # noqa: F401  the set-up a user's invocation pays
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = (time.monotonic_ns() - args.spawned_at) / 1e9
    if args.child == "setup":
        return {"setup_s": setup_s}
    # the reference checks recurse as deep as the trace states nest
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 50000))
    if args.trace:
        return _traced(workload)
    return _measure(workload, args.seconds) | {"setup_s": setup_s}


def _run_passes(workload, seconds: float):
    """Whole passes until ``seconds`` have gone.  The first pass's output
    is kept; later ones must equal it.  The peak resident set is read
    after the first pass: later passes in the same process add only heap
    fragmentation, which one invocation of the command does not see."""
    passes, same = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        gc.collect()
        p = workload.run_pass()
        if passes:
            same.append(p.outputs == passes[0].outputs and p.codes == passes[0].codes)
            p.outputs = ()
        else:
            same.append(True)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes.append(p)
    return passes, same, peak_rss_mb


def _failed(workload, passes, same) -> int:
    """Passes that failed: all of them when the first is wrong, else the
    later ones whose output differs from it."""
    problems = workload.check(passes[0])
    for problem in problems:
        print(f"{workload.name}: {problem}", file=sys.stderr)
    if not all(same):
        print(f"{workload.name}: a later pass printed different output", file=sys.stderr)
    return sum(1 for ok in same if not ok or problems)


def _measure(workload, seconds: float) -> dict:
    passes, same, peak_rss_mb = _run_passes(workload, seconds)
    failed = _failed(workload, passes, same)
    times = [p.seconds for p in passes]
    metrics = {
        "pass_s": statistics.median(times),
        "items_per_s": sum(p.items for p in passes) / sum(times),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {"passes": [len(passes), "count"], "items_per_pass": [passes[0].items, "count"]}
    if getattr(workload, "beta_steps", None):
        extra["beta_steps_per_pass"] = [workload.beta_steps, "count"]
        extra["beta_steps_per_s"] = [workload.beta_steps * len(passes) / sum(times), "1/s"]
    items = [t for p in passes for t in p.item_seconds]
    if items:
        extra["item_samples"] = [len(items), "count"]
        extra["item_p50_ms"] = [statistics.median(items) * 1e3, "ms"]
    if len(items) >= 1000:  # at least ten samples above the 99th percentile
        extra["item_p99_ms"] = [statistics.quantiles(items, n=100)[98] * 1e3, "ms"]
    return {"attempted": len(passes), "failed": failed, "metrics": metrics, "extra": extra}


def _traced(workload) -> dict:
    from tracing import Tracer, t_step_probe

    gc.collect()
    plain = workload.run_pass()
    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        traced = workload.run_pass()
    finally:
        tracer.uninstall()
    traced_s = traced.seconds - tracer.paused / 1e9
    same = [True, traced.outputs == plain.outputs and traced.codes == plain.codes]
    failed = _failed(workload, [plain, traced], same)
    probe = t_step_probe()
    metrics = tracer.layer_metrics(traced_s - plain.seconds, probe)
    out = HERE / "work"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload.name}.json"
    tracer.write(path, metrics)
    extra = {
        "untraced_pass_s": [plain.seconds, "s"],
        "traced_pass_s": [traced_s, "s"],
        "spans": [len(tracer.spans), "count"],
    }
    print(f"spans and counters written to {path.relative_to(ROOT)}", file=sys.stderr)
    return {"attempted": 2, "failed": failed, "metrics": metrics, "extra": extra}


# ---------- the driving process ----------


def _spawn(args, role: str, deadline: float) -> dict | None:
    argv = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--child", role, "--spawned-at", str(time.monotonic_ns()),
    ]
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print(f"{role} process timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{role} process exited with status {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.child:
        print(json.dumps(_child(args)))
        return 0
    missing = [p for p in ("src/lambdah/cli.py", "tests/data/contexts.txt") if not (ROOT / p).is_file()]
    if missing:
        print(f"not a lambdah source checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            probe = _spawn(args, "setup", deadline)
            if probe is None:
                return 1
            setups.append(probe["setup_s"])
    result = _spawn(args, "measure", deadline)
    if result is None:
        return 1
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        metrics = {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    for name, m in metrics.items():
        print(f"{name:36} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in result["extra"].items():
        print(f"{name:36} {value:.6g} {unit}  (not gated)")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
