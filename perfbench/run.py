"""modlab benchmark: one workload, a closed loop of operations, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload scan_1m|sampled_tier|cli_mix|all \\
        --seed N --seconds S --trace 0|1

One client drives a closed loop: each operation starts after the previous
one has ended, and each runs in a fresh worker process (``worker.py``). New
operations start until ``--seconds`` have passed; the last one runs to its
end. With ``--trace 0`` nothing is traced and the end-to-end metrics are
reported; with ``--trace 1`` each operation runs in process twice, untraced
and then traced, each time in a fresh worker, and the per-layer metrics are
reported. The report goes to
standard output; its last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Scratch files and a full result
record go to ``.perfbench_work/`` under the repository root.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import IN_PROCESS, WORKLOADS, run_child

RUN_BUDGET_S = 170.0     # a run must end within 180 s
SETUP_SAMPLES = 9        # setup_s is the median of at least this many set-ups
IMPORT_SAMPLES = 5       # fresh interpreters timing ``import modlab.cli``
TAIL_BEYOND = 10         # op_tail_s needs this many samples beyond its percentile

# cli_mix command kinds reported as per-kind medians
COMMAND_METRICS = {"validate_s": "validate", "figure_s": "figure", "scan_s": "scan",
                   "fit_s": "fit"}


class Run:
    """Work directory, deadline and worker launching for one benchmark run."""

    def __init__(self, root, seed, spec):
        self.root = root
        self.seed = seed
        self.spec = spec
        self.work = root / ".perfbench_work"
        self.work.mkdir(exist_ok=True)
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def remaining(self):
        return self.deadline - time.monotonic()

    def worker(self, workload, mode, op=0, untraced_wall=None):
        """Start one worker and wait for it; its result, or {"error": ...} if it failed."""
        result_path = self.work / f"{workload}-{mode}.json"
        result_path.unlink(missing_ok=True)
        argv = [sys.executable, str(Path(__file__).with_name("worker.py")),
                "--workload", workload, "--seed", str(self.seed), "--op", str(op),
                "--mode", mode, "--timeout", f"{self.remaining() - 2.0:.3f}",
                "--work", str(self.work), "--result", str(result_path)]
        if untraced_wall is not None:
            argv += ["--untraced-wall", repr(untraced_wall)]
        spawned = time.monotonic()
        with open(self.work / f"{workload}-{mode}.log", "w+", encoding="utf-8") as log:
            code, wall, rss_kb = run_child(argv, stdout=log, stderr=log,
                                           timeout=self.remaining(), new_session=True)
            log.seek(0)
            log_tail = log.read()[-2000:]
        if code != 0 or not result_path.exists():
            return {"error": f"worker exit code {code}: {log_tail}", "wall_s": wall}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = result.pop("ready") - spawned
        result["worker_rss_kb"] = rss_kb
        return result


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it, or None."""
    below = len(values) - TAIL_BEYOND
    if below < 1:
        return None
    return 100.0 * below / len(values), sorted(values)[below - 1]


def op_outcome(op):
    """(wall seconds of the operation's modlab calls, list of failures)."""
    if "error" in op:
        return op["wall_s"], [op["error"]]
    failures = [f for step in op["steps"] for f in step["failures"]]
    wall = sum(step["wall_s"] for step in op["steps"])
    return wall, failures


def run_ops(run, workload, seconds, trace):
    ops = []
    start = time.monotonic()
    while not ops or (time.monotonic() - start < seconds and run.remaining() > 5.0):
        if not trace:
            ops.append(run.worker(workload, "timed", op=len(ops)))
            continue
        plain = run.worker(workload, "untraced", op=len(ops))
        traced = ("error" not in plain and
                  run.worker(workload, "traced", op=len(ops),
                             untraced_wall=op_outcome(plain)[0]))
        if not traced or "error" in traced:
            # a traced run that cannot trace must not report partial layers
            raise SystemExit(f"traced run failed: {(traced or plain)['error']}")
        traced["steps"] += plain["steps"]
        ops.append(traced)
    return ops


def end_to_end(run, workload, ops):
    walls, failed = [], 0
    for op in ops:
        wall, failures = op_outcome(op)
        failed += bool(failures)
        if not failures:
            walls.append(wall)
    walls = walls or [op_outcome(op)[0] for op in ops]
    setups = [op["setup_s"] for op in ops if "setup_s" in op]
    while len(setups) < SETUP_SAMPLES and run.remaining() > 10.0:
        probe = run.worker(workload, "setup")
        if "setup_s" in probe:
            setups.append(probe["setup_s"])
    good = [op for op in ops if "steps" in op]
    if workload in IN_PROCESS:
        rss_kb = [op["worker_rss_kb"] for op in good]
    else:
        rss_kb = [step["rss_kb"] for op in good for step in op["steps"] if "rss_kb" in step]
    metrics = {"setup_s": median(setups), "op_p50_s": median(walls),
               "peak_rss_mb": max(rss_kb, default=0) / 1024.0}
    extra = {"fail_ratio": failed / len(ops), "op_tail_s": tail(walls),
             "ops": len(walls), "setup_samples": len(setups)}
    if workload == "scan_1m":
        command_walls = [step["wall_s"] for op in good for step in op["steps"]]
        extra["rows_per_s"] = good[0]["rows"] / median(command_walls) if good else 0.0
    if workload == "cli_mix":
        for metric, kind in COMMAND_METRICS.items():
            extra[metric] = median([step["wall_s"] for op in good for step in op["steps"]
                                    if step["kind"] == kind])
    return metrics, failed, extra


def import_time(run):
    code = "import time; t = time.perf_counter(); import modlab.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(run.root / "src"))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=max(run.remaining(), 1.0))
        samples.append(float(out.stdout))
    return median(samples)


def per_layer(run, ops):
    failed = sum(bool(op_outcome(op)[1]) for op in ops)
    metrics = {name: median([op["layers"][name] for op in ops]) for name in ops[0]["layers"]}
    metrics["cli.import_s"] = import_time(run)
    extra = {"ops": len(ops), "trace_checks": [op["trace_checks"] for op in ops]}
    return metrics, failed, extra


def machine_facts(root, ops):
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "not a git checkout"
    if (root / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True)
        commit = out.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "modlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": next((op["numpy"] for op in ops if "numpy" in op), "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "caches": caches,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "pinning": "none: no CPU pinning or frequency control; no machine setting is changed",
    }


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(run, workload, trace, metrics, failed, attempted, extra, facts):
    why = next(w["why"] for w in run.spec["workloads"] if w["name"] == workload)
    lines = [f"== {workload}  seed={run.seed}  trace={trace}  closed loop, 1 client, "
             f"1 worker process per operation",
             f"   why: {why}"]
    for name, value in metrics.items():
        lines.append(f"   {name:<38} {fmt(value['value']):>14} {value['unit']}")
    if not trace:
        tail_value = extra["op_tail_s"]
        lines.append(
            f"   {'op_tail_s':<38} "
            + (f"{fmt(tail_value[1]):>14} s (p{tail_value[0]:.0f} of {extra['ops']} ops)"
               if tail_value else
               f"{'omitted':>14}   ({extra['ops']} ops; a percentile with "
               f"{TAIL_BEYOND} samples beyond it needs at least {TAIL_BEYOND + 1})"))
        for name in ("rows_per_s", *COMMAND_METRICS):
            if name in extra:
                unit = "1/s" if name == "rows_per_s" else "s"
                lines.append(f"   {name:<38} {fmt(extra[name]):>14} {unit}")
        lines.append(f"   {'fail_ratio':<38} {fmt(extra['fail_ratio']):>14} "
                     f"({failed}/{attempted})")
        lines.append(f"   setup_s is the median of {extra['setup_samples']} set-ups")
    else:
        for op_checks in extra["trace_checks"]:
            layer_self = ", ".join(f"{k} {v:.4f}" for k, v in op_checks["layer_self_s"].items())
            lines.append(f"   spans {op_checks['spans']}, self times {op_checks['self_time_sum_s']:.4f} s "
                         f"(uncovered {op_checks['uncovered_s']:.2e} s); layer self s: {layer_self}")
    lines.append("   machine: " + "; ".join(f"{k}={v}" for k, v in facts.items()))
    print("\n".join(lines))


def run_workload(run, workload, seconds, trace):
    ops = run_ops(run, workload, seconds, trace)
    if trace:
        values, failed, extra = per_layer(run, ops)
    else:
        values, failed, extra = end_to_end(run, workload, ops)
    # exactly the metrics BENCHMARK.json lists; one it names but the run lacks is an error
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in run.spec["per_layer" if trace else "end_to_end"]}
    for op in ops:
        for step in op.get("steps", ()):
            for failure in step["failures"]:
                print(f"FAILED {workload} op: {failure}", file=sys.stderr)
        if "error" in op:
            print(f"FAILED {workload} op: {op['error']}", file=sys.stderr)
    facts = machine_facts(run.root, ops)
    report(run, workload, trace, metrics, failed, len(ops), extra, facts)
    record = {"workload": workload, "seed": run.seed, "seconds": seconds, "trace": trace,
              "attempted": len(ops), "failed": failed, "metrics": metrics,
              "extra": extra, "machine": facts, "ops": ops}
    results = run.work / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload}-seed{run.seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return metrics, len(ops), failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "modlab" / "cli.py").is_file():
        print("perfbench: no modlab sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    # byte-compile once, so no timed command pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src" / "modlab")],
                   check=True, stdout=subprocess.DEVNULL)
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    run = Run(root, args.seed, spec)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for workload in workloads:
        values, n, bad = run_workload(run, workload, args.seconds, args.trace)
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in values.items()})
        attempted += n
        failed += bad
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
