"""One operation of a modlab benchmark workload, run in a fresh process.

``run.py`` starts one worker per operation, so every operation pays its own
interpreter start and nothing computed by one operation can be reused by the
next. The worker first does the workload's set-up (import numpy and modlab,
write the configs, the waveform file and the input arrays), notes the moment
it is ready, then runs the operation and checks its outputs. It writes one
JSON object to the ``--result`` file.

Modes:
  timed     CLI commands run as ``python -m modlab.cli`` subprocesses (the
            ``modlab`` console script is not assumed installed); the API
            workload runs in this process. No tracing.
  untraced  every step runs in this process, without tracing: the baseline
            for the tracing overhead.
  traced    every step runs in this process with the span tracer of
            ``tracer.py`` installed; reports per-layer metrics. A separate
            process from ``untraced``, so neither run can reuse the other's work.
  setup     set-up only, for extra ``setup_s`` samples.

Only ``fit --seed`` receives the benchmark seed: it drives the Poisson
synthesis. Every other input is fixed, so each trace CSV has one expected
SHA-256 digest, recorded below at the baseline commit.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("scan_1m", "sampled_tier", "cli_mix")
IN_PROCESS = ("sampled_tier",)

# Trace CSVs are byte-identical for identical inputs: digests taken at the
# baseline commit d842f91 with Python 3.11.7 and numpy 2.4.6 on x86-64.
EXPECTED_SHA256 = {
    "scan_1m": "1e7a51c2dafa954c7d65adb4b87674b59f690bd985bb2cc63c570b9924556ae2",
    "fig3a": "7d8648f66080176d41cf9cdcd321550be8611abe90baf06b761d95954e0717da",
    "fig3b": "ca05fe28294eee61242e6b609deb949bdb1f3e42f24afcfed532dc105aa5c18d",
    "fig4a": "41f5010586e2dc5569acd67c8dcb7e1f1a19edd56ce9c8fc559a29a4a02a2134",
    "fig4b": "7b741e71eb2511fb09e9e99a2850e2e016233b96c34ffc8b8302bb25cd86a006",
    # same scenario and axis as the fig4a figure, hence the same bytes
    "reference_scan": "41f5010586e2dc5569acd67c8dcb7e1f1a19edd56ce9c8fc559a29a4a02a2134",
    "waveform_scan": "6fea80d042165207c6f912e4cb90a97fa5d240d84c208f8be6bbd68fb77e29ec",
}
SCAN_1M_ROWS = 1_000_001
FIGURE_ROWS = 601
VALIDATE_CHECKS = 15
# fit_demo uses the fig3b preset: alpha1^2 * alpha2^2 = 1.20e-2 * 5.59e-4
FIT_SCALE_PRODUCT = 1.20e-2 * 5.59e-4
FIT_RTOL = 0.05               # acceptance criterion 8
TIER_REL_RMS_MAX = 0.01       # test_tier_agreement_sampled_amplitudes

SCAN_1M_CFG = """schema = 1

[scan]
delta_min = -150 GHz
delta_max = 150 GHz
delta_step = 0.0003 GHz

[scenario]
preset = fig4a
"""

WAVEFORM_CFG = """schema = 1

[scan]
delta_min = -150 GHz
delta_max = 150 GHz
delta_step = 0.5 GHz

[scenario]
preset = fig3a
mod1_waveform = {path}
"""

WAVEFORM_ROWS = 512


def waveform_text():
    """One period of a three-harmonic phase drive, 512 uniform samples."""
    lines = ["# time_fraction phase_rad"]
    for j in range(WAVEFORM_ROWS):
        t = j / WAVEFORM_ROWS
        phase = (1.2 * math.cos(2.0 * math.pi * t)
                 + 0.45 * math.cos(4.0 * math.pi * t + 0.7)
                 + 0.25 * math.sin(6.0 * math.pi * t))
        lines.append(f"{t!r} {phase:.12f}")
    return "\n".join(lines) + "\n"


@dataclass
class Step:
    """One call into modlab: a CLI command (``argv``) or an API call (``call``).

    ``check`` receives the exit code and standard output and returns the
    list of failed checks; ``rows`` counts the CSV rows the step writes.
    """

    kind: str
    check: Callable[[int, str], list]
    argv: list | None = None
    call: Callable[[], list] | None = None
    rows: int = 0


def run_child(argv, *, timeout, stdout=subprocess.DEVNULL, stderr=None, env=None,
              new_session=False):
    """Run ``argv`` to completion; return (exit code, wall seconds, peak RSS in KiB).

    The peak RSS is the child's own, read with ``os.wait4``. A child still
    running after ``timeout`` seconds is killed (with its process group when
    ``new_session``) and reported with a negative exit code.
    """
    start = time.monotonic()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env,
                            start_new_session=new_session)

    def kill():
        if new_session:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, 9)
        else:
            proc.kill()

    killer = threading.Timer(max(timeout, 0.0), kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def _exit_ok(code, kind):
    return [] if code == 0 else [f"{kind}: exit code {code}"]


def check_validate(expect_skip):
    """15 checks, all PASS; out of regime, tier_agreement is SKIP instead."""
    def check(code, out):
        failures = _exit_ok(code, "validate")
        status = {}
        for line in out.splitlines()[:-1]:
            word, _, rest = line.partition(" ")
            status[rest.partition(" ")[0]] = word
        expected = {name: "PASS" for name in status}
        if expect_skip:
            expected["tier_agreement"] = "SKIP"
        if len(status) != VALIDATE_CHECKS or status != expected:
            failures.append(f"validate statuses {status}")
        return failures
    return check


def check_fit(code, out):
    failures = _exit_ok(code, "fit")
    values = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
    try:
        product = float(values["scale_product"])
    except (KeyError, ValueError):
        return failures + [f"fit printed no scale_product: {out!r}"]
    err = abs(product - FIT_SCALE_PRODUCT) / FIT_SCALE_PRODUCT
    if err > FIT_RTOL:
        failures.append(f"fit scale product off by {err:.3%}")
    return failures


def check_trace_csv(name, path, rows):
    """Exit code, row count and SHA-256 of a trace CSV against the baseline record."""
    def check(code, out):
        failures = _exit_ok(code, name)
        digest = hashlib.sha256()
        newlines = 0
        try:
            with open(path, "rb") as fh:
                while chunk := fh.read(1 << 20):
                    digest.update(chunk)
                    newlines += chunk.count(b"\n")
        except OSError as exc:
            return failures + [f"{name}: cannot read {path}: {exc}"]
        if newlines - 1 != rows:
            failures.append(f"{name}: {newlines - 1} rows, expected {rows}")
        if digest.hexdigest() != EXPECTED_SHA256[name]:
            failures.append(f"{name}: sha256 {digest.hexdigest()} differs from the baseline commit")
        return failures
    return check


def scan_1m_steps(work, seed):
    cfg = work / "scan_1m.cfg"
    cfg.write_text(SCAN_1M_CFG, encoding="utf-8")
    out = work / "scan_1m.csv"
    return [Step("scan", check_trace_csv("scan_1m", out, SCAN_1M_ROWS),
                 argv=["scan", "--config", str(cfg), "--out", str(out)], rows=SCAN_1M_ROWS)]


def cli_mix_steps(work, seed):
    wave = (work / "waveform.txt").resolve()
    wave.write_text(waveform_text(), encoding="utf-8")
    wave_cfg = work / "waveform_scan.cfg"
    wave_cfg.write_text(WAVEFORM_CFG.format(path=wave), encoding="utf-8")
    steps = [
        Step("validate", check_validate(False), argv=["validate"]),
        Step("validate_out_of_regime", check_validate(True),
             argv=["validate", "--config", "configs/out_of_regime.cfg"]),
    ]
    for case in ("fig3a", "fig3b", "fig4a", "fig4b"):
        out = work / f"{case}.csv"
        steps.append(Step("figure", check_trace_csv(case, out, FIGURE_ROWS),
                          argv=["figure", "--config", f"configs/{case}.cfg", "--out", str(out)],
                          rows=FIGURE_ROWS))
    for name, cfg in (("reference_scan", "configs/reference_scan.cfg"),
                      ("waveform_scan", str(wave_cfg))):
        out = work / f"{name}.csv"
        steps.append(Step("scan" if name == "reference_scan" else "scan_waveform",
                          check_trace_csv(name, out, FIGURE_ROWS),
                          argv=["scan", "--config", cfg, "--out", str(out)], rows=FIGURE_ROWS))
    steps.append(Step("fit", check_fit,
                      argv=["fit", "--config", "configs/fit_demo.cfg", "--seed", str(seed)]))
    return steps


def sampled_tier_steps(work, seed):
    """Mirror of test_tier_agreement_sampled_amplitudes, as one API call."""
    import numpy as np
    import modlab

    pump = 2.0 * 281759.8
    grid = modlab.FrequencyGrid(center=0.5 * pump, span=1100.0, points=2201,
                                pump_frequency=pump)
    detuning = grid.omegas - grid.center
    profile = modlab.CrystalProfile(kappa=0.06 * np.exp(-detuning ** 2 / (2.0 * 800.0 ** 2)),
                                    delta_k=1.5e-6 * detuning ** 2, length=20.0)
    delta = np.arange(-150.0, 151.0, 1.0)
    slit = (0.5 * pump) / 210.0

    def call():
        # modlab functions are looked up at call time so the tracer's
        # rebinding of the package attributes takes effect
        amps = modlab.propagate_envelopes(profile, grid, steps=256)
        base = modlab.reference_scenario(1.5, 1.5)
        scn = modlab.ExperimentScenario(
            pump_frequency=pump, amplitudes=amps, mod1=base.mod1, mod2=base.mod2,
            filter1=modlab.GaussianFilter(fwhm=8.5, alpha=base.filter1.alpha,
                                          slit=slit, dispersion=210.0),
            filter2=modlab.GaussianFilter(fwhm=8.5, alpha=base.filter2.alpha,
                                          slit=slit, dispersion=210.0),
            gate_ns=1.25, dispersion=210.0)
        trace = modlab.coincidence_trace(scn, delta)
        full = modlab.coincidence_full(scn, delta)
        rel_rms = (np.sqrt(np.mean((full.total - trace.total) ** 2))
                   / np.sqrt(np.mean(trace.total ** 2)))
        if not 0.0 < rel_rms <= TIER_REL_RMS_MAX:
            return [f"tier rel-RMS {rel_rms:.3e} outside (0, {TIER_REL_RMS_MAX}]"]
        return []

    return [Step("tier", lambda code, out: [], call=call)]


STEPS = {"scan_1m": scan_1m_steps, "sampled_tier": sampled_tier_steps,
         "cli_mix": cli_mix_steps}


def run_step_subprocess(step, root, work, deadline):
    """A CLI step as ``python -m modlab.cli``: wall time and peak RSS per child."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with open(work / "step.out", "w+", encoding="utf-8") as out, \
            open(work / "step.err", "w+", encoding="utf-8") as err:
        code, wall, rss_kb = run_child(
            [sys.executable, "-m", "modlab.cli", *step.argv], stdout=out, stderr=err,
            env=env, timeout=deadline - time.monotonic())
        out.seek(0)
        err.seek(0)
        text, err_tail = out.read(), err.read()[-300:]
    failures = step.check(code, text)
    if code != 0:
        failures.append(f"stderr: {err_tail}")
    return {"kind": step.kind, "wall_s": wall, "rss_kb": rss_kb, "exit": code,
            "failures": failures}


def run_step_in_process(step):
    import modlab.cli

    out = io.StringIO()
    start = time.perf_counter()
    if step.call is not None:
        failures = step.call()
        code = 0
    else:
        with contextlib.redirect_stdout(out):
            try:
                code = modlab.cli.main(step.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        failures = []
    wall = time.perf_counter() - start
    failures += step.check(code, out.getvalue())
    return {"kind": step.kind, "wall_s": wall, "exit": code, "failures": failures}


def run_op(steps, runner):
    """Run every step; a failing step is recorded, never raised."""
    results = []
    for step in steps:
        try:
            results.append(runner(step))
        except Exception:   # a crash inside modlab is a failed operation
            results.append({"kind": step.kind, "wall_s": math.nan, "exit": None,
                            "failures": [traceback.format_exc(limit=3)]})
    return results


def traced_op(steps, op_index, spans_path, untraced_wall):
    """Traced in-process run of the steps; per-layer metrics."""
    import tracer

    with tracer.Tracer(op_index) as tr:
        traced = run_op(steps, run_step_in_process)
    traced_wall = sum(s["wall_s"] for s in traced)
    layers, checks = tr.layer_metrics(traced_wall, traced_wall - untraced_wall)
    tr.save(spans_path)
    return traced, {"layers": layers, "trace_checks": checks}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--op", type=int, default=0)
    parser.add_argument("--mode", choices=("timed", "untraced", "traced", "setup"),
                        required=True)
    parser.add_argument("--untraced-wall", type=float,
                        help="wall time of the same operation untraced (traced mode)")
    parser.add_argument("--timeout", type=float, default=170.0)
    parser.add_argument("--work", required=True, help="scratch directory for inputs and outputs")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.timeout

    # --- set-up: everything up to the first timed call counts as setup_s
    root = Path.cwd()
    work = Path(args.work)
    sys.path.insert(0, str(root / "src"))
    import numpy
    import modlab.cli  # noqa: F401  (import cost is part of set-up)
    steps = STEPS[args.workload](work, args.seed)
    ready = time.monotonic()

    result = {"ready": ready, "numpy": numpy.__version__}
    if args.mode == "timed":
        runner = (run_step_in_process if args.workload in IN_PROCESS
                  else lambda step: run_step_subprocess(step, root, work, deadline))
        result["steps"] = run_op(steps, runner)
    elif args.mode == "untraced":
        result["steps"] = run_op(steps, run_step_in_process)
    elif args.mode == "traced":
        spans = work / "spans" / f"{args.workload}-op{args.op}.npz"
        spans.parent.mkdir(exist_ok=True)
        result["steps"], extra = traced_op(steps, args.op, spans, args.untraced_wall)
        result.update(extra)
    result["rows"] = sum(step.rows for step in steps)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
