"""Command-line front end: scans, figure presets, fits and self-validation.

This module parses arguments and config files, writes trace CSVs and
prints reports. The invariant suite that ``validate`` reports on is
``modlab.checks``; ``run_validate`` is bound here from there.

Configuration is a plain-text file with named ``[section]`` headers and
``key = value`` pairs; values may carry a unit suffix which is checked
against the unit expected for that key. Unknown sections or keys are hard
errors so misspellings cannot silently fall back to defaults, and so is a
section the command does not read. The file must start with
``schema = 1``.

Sections each command reads:

  scan       [run] [scan] [scenario]
  figure     [run] [scan] [figure]; the preset named by [figure] case is
             the whole scenario
  fit        [run] [scan] [fit] [scenario]
  validate   [run] [scenario]

Sections and keys:

  schema = 1                   (required, before any section)
  [run]      seed (int), dwell (s), out (path)
  [scan]     delta_min (GHz), delta_max (GHz), delta_step (GHz)
  [figure]   case (fig3a|fig3b|fig4a|fig4b)
  [fit]      data (path to a delta_ghz,counts CSV; synthesized when absent)
  [scenario] preset (figure case), or explicit keys:
             pump_frequency (GHz), modulation_frequency (GHz), gate (ns),
             dispersion (GHz/mm), fwhm_convention (intensity|field),
             b0 (|B0|, dimensionless),
             mod1_depth/mod2_depth (rad), mod1_phase/mod2_phase (rad),
             mod1_waveform/mod2_waveform (path to a two-column phase file),
             filter1_fwhm/filter2_fwhm (GHz), filter1_alpha_sq/
             filter2_alpha_sq (dimensionless), filter1_slit/filter2_slit (mm)

With ``preset`` present the remaining scenario keys act as overrides.
``fwhm_convention`` (whether filter FWHMs are those of |H|^2 or of H) is
applied as each filter is built, so every scenario holds intensity FWHMs.
Missing slits default to the degenerate spectrum center; missing modulator
keys default to an undriven channel.

Exit codes: 0 success, 1 validation/fit failure, 2 configuration error
(an unreadable ``--config`` or waveform file included), 3 I/O failure on an
output file or the fit-data file. A scan axis longer than ``MAX_SCAN_ROWS``
rows, a scan axis whose span or row count is not finite, a negative seed, a
dwell that is not positive and finite or so long that a Poisson mean passes
numpy's limit, a filter FWHM whose squared passband half-width overflows, a
negative transmission scale, transmission scales so large that the
coincidence rates overflow, a modulation depth above 157 rad in magnitude
(``modulation.MAX_DEPTH``), and a non-finite fit-data or waveform value
are configuration errors. A scan or figure whose axis runs past the composed
modulator support still succeeds, with one ``warning:`` line on stderr,
printed before the output file is opened. Identical config and seed
reproduce byte-identical output files; the random generator is numpy's
PCG64.

``scan`` and ``figure`` build the closed-form model once and keep only the
delta axis (``correlator.lazy_trace``). ``emit_trace`` then evaluates and
formats the trace ``_EMIT_CHUNK_ROWS`` rows at a time, each chunk's
columns computed from its slice of the axis right before it is formatted,
into one ``textfmt.Canvas`` whose word canvas and work arrays every chunk
reuses. No full-length output column exists, so the memory a scan needs
grows with its axis alone, and no chunk allocates the formatter's arrays
anew.
"""

import argparse
import contextlib
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from .checks import run_validate
from .correlator import (FWHM_CONVENTIONS, GaussianFilter, coincidence_trace,
                         intensity_filter, lazy_trace)
from .errors import (ConfigParseError, ConfigurationError, DomainError, FitError,
                     ModlabError, ResolutionError)
from .modulation import coeffs_from_waveform, read_phase_waveform, sinusoidal_coeffs
from .scenario import (FIGURE_CASES, ExperimentScenario, figure_preset, fit_scale,
                       synthesize_counts)
from .spdc_core import SpectralAmplitudes

MAX_SCAN_ROWS = 10_000_000

_SECTIONS = {
    "run": {"seed": ("int", None), "dwell": ("float", "s"), "out": ("str", None)},
    "scan": {"delta_min": ("float", "GHz"), "delta_max": ("float", "GHz"),
             "delta_step": ("float", "GHz")},
    "figure": {"case": ("enum", FIGURE_CASES)},
    "fit": {"data": ("str", None)},
    "scenario": {
        "preset": ("enum", FIGURE_CASES),
        "pump_frequency": ("float", "GHz"),
        "modulation_frequency": ("float", "GHz"),
        "gate": ("float", "ns"),
        "dispersion": ("float", "GHz/mm"),
        "fwhm_convention": ("enum", FWHM_CONVENTIONS),
        "b0": ("float", None),
        "mod1_depth": ("float", "rad"), "mod1_phase": ("float", "rad"),
        "mod2_depth": ("float", "rad"), "mod2_phase": ("float", "rad"),
        "mod1_waveform": ("str", None), "mod2_waveform": ("str", None),
        "filter1_fwhm": ("float", "GHz"), "filter1_alpha_sq": ("float", None),
        "filter1_slit": ("float", "mm"),
        "filter2_fwhm": ("float", "GHz"), "filter2_alpha_sq": ("float", None),
        "filter2_slit": ("float", "mm"),
    },
}

# the sections each command reads; any other section is an error, not ignored
_COMMAND_SECTIONS = {
    "scan": ("run", "scan", "scenario"),
    "figure": ("run", "scan", "figure"),
    "fit": ("run", "scan", "fit", "scenario"),
    "validate": ("run", "scenario"),
}


@dataclass
class RunConfig:
    """Resolved run parameters (config file plus command-line overrides)."""

    out_path: str | None = None
    delta_min: float | None = None
    delta_max: float | None = None
    delta_step: float | None = None
    figure_case: str | None = None
    seed: int = 0
    dwell: float = 20.0
    gnuplot_style: bool = False
    fit_data: str | None = None

    def delta_axis(self):
        if self.delta_min is None:
            raise ConfigurationError("missing [scan] section with the delta axis")
        steps = (self.delta_max - self.delta_min) / self.delta_step
        if not math.isfinite(steps):
            raise ConfigurationError(
                f"delta axis from {self.delta_min:g} to {self.delta_max:g} GHz in steps of "
                f"{self.delta_step:g} GHz has no finite row count")
        count = int(math.floor(steps + 1e-9))
        if count + 1 > MAX_SCAN_ROWS:
            raise ConfigurationError(
                f"delta axis would have {count + 1} rows, more than the "
                f"limit of {MAX_SCAN_ROWS}; increase delta_step")
        return self.delta_min + self.delta_step * np.arange(count + 1)


def _parse_scalar(key, kind, unit, raw, line):
    parts = raw.split()
    if not parts:
        raise ConfigParseError(f"empty value for key '{key}'", line)
    if kind == "enum":
        if len(parts) != 1:
            raise ConfigParseError(f"key '{key}' takes a single word", line)
        if parts[0] not in unit:
            raise ConfigParseError(
                f"key '{key}' must be one of {', '.join(unit)} (got '{parts[0]}')", line)
        return parts[0]
    if kind == "str":
        if len(parts) != 1:
            raise ConfigParseError(f"key '{key}' takes a single token", line)
        return parts[0]
    if len(parts) == 2:
        if unit is None:
            raise ConfigParseError(
                f"key '{key}' is dimensionless but got unit suffix '{parts[1]}'", line)
        if parts[1] != unit:
            raise ConfigParseError(
                f"unit mismatch for key '{key}': expected {unit}, got {parts[1]}", line)
    elif len(parts) != 1:
        raise ConfigParseError(f"cannot parse value '{raw}' for key '{key}'", line)
    try:
        if kind == "int":
            return int(parts[0])
        value = float(parts[0])
    except ValueError as exc:
        raise ConfigParseError(f"non-numeric value for key '{key}': '{parts[0]}'", line) from exc
    if not math.isfinite(value):
        raise ConfigParseError(f"non-finite value for key '{key}': '{parts[0]}'", line)
    return value


def _tokenize(text):
    """Yield (line_number, section_or_None, key, raw_value)."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigParseError(f"unknown section '[{section}]'", lineno)
            yield lineno, section, None, None
            continue
        if "=" not in stripped:
            raise ConfigParseError(f"expected 'key = value', got '{stripped}'", lineno)
        key, _, value = stripped.partition("=")
        yield lineno, section, key.strip(), value.strip()


def parse_config(text: str, command: str = "scan"):
    """Parse a config file into a RunConfig and (when present) a scenario.

    Fully validated: unknown sections/keys, sections ``command`` does not
    read, unit mismatches, duplicate keys, ordering violations and
    out-of-range values all raise ConfigParseError with the offending line
    number.
    """
    values = {}     # (section, key) -> value
    lines = {}
    saw_schema = False
    for lineno, section, key, raw in _tokenize(text):
        if key is None:
            continue
        if section is None:
            if key != "schema":
                raise ConfigParseError(
                    f"key '{key}' appears before any section (only 'schema' may)", lineno)
            schema = _parse_scalar("schema", "int", None, raw, lineno)
            if schema != 1:
                raise ConfigParseError(f"unsupported schema version {schema}", lineno)
            saw_schema = True
            continue
        known = _SECTIONS[section]
        if key not in known:
            raise ConfigParseError(f"unknown key '{key}' in section '[{section}]'", lineno)
        if (section, key) in values:
            raise ConfigParseError(f"duplicate key '{key}' in section '[{section}]'", lineno)
        kind, unit = known[key]
        values[(section, key)] = _parse_scalar(key, kind, unit, raw, lineno)
        lines[(section, key)] = lineno
    if not saw_schema:
        raise ConfigParseError("missing required 'schema = 1' key", None)
    # lines is in file order, so the first hit is the first key of its section
    for (section, _), line in lines.items():
        if section not in _COMMAND_SECTIONS[command]:
            if (command, section) == ("figure", "scenario"):
                message = ("figure takes its scenario from [figure] case; "
                           "remove the [scenario] section")
            else:
                message = f"{command} does not read a [{section}] section; remove it"
            raise ConfigParseError(message, line)

    run = RunConfig()
    run.seed = values.get(("run", "seed"), run.seed)
    run.dwell = values.get(("run", "dwell"), run.dwell)
    run.out_path = values.get(("run", "out"), None)
    run.figure_case = values.get(("figure", "case"), None)
    run.fit_data = values.get(("fit", "data"), None)
    if ("scan", "delta_step") in values or ("scan", "delta_min") in values:
        for k in ("delta_min", "delta_max", "delta_step"):
            if ("scan", k) not in values:
                raise ConfigParseError(f"[scan] section is missing key '{k}'", None)
        run.delta_min = values[("scan", "delta_min")]
        run.delta_max = values[("scan", "delta_max")]
        run.delta_step = values[("scan", "delta_step")]
        if run.delta_step <= 0:
            raise ConfigParseError("delta_step must be positive",
                                   lines[("scan", "delta_step")])
        if run.delta_min >= run.delta_max:
            raise ConfigParseError("delta_min must lie below delta_max",
                                   lines[("scan", "delta_min")])
    if run.dwell <= 0:
        raise ConfigParseError("dwell must be positive", lines.get(("run", "dwell")))
    if run.seed < 0:
        raise ConfigParseError("seed must be nonnegative", lines.get(("run", "seed")))

    scn_items = {k: v for (sec, k), v in values.items() if sec == "scenario"}
    scenario = _build_scenario(scn_items, lines) if scn_items else None
    return run, scenario


def _build_scenario(items, lines):
    def line_of(key):
        return lines.get(("scenario", key))

    if "preset" in items:
        params = _scenario_params(figure_preset(items["preset"]))
        params.update({k: v for k, v in items.items() if k != "preset"})
    else:
        required = ("pump_frequency", "modulation_frequency", "gate", "dispersion",
                    "b0", "filter1_fwhm", "filter1_alpha_sq",
                    "filter2_fwhm", "filter2_alpha_sq")
        missing = [k for k in required if k not in items]
        if missing:
            raise ConfigParseError(
                "explicit scenario is missing required keys: " + ", ".join(missing), None)
        params = dict(items)
        params.setdefault("fwhm_convention", "intensity")
        params.setdefault("mod1_depth", 0.0)
        params.setdefault("mod1_phase", 0.0)
        params.setdefault("mod2_depth", 0.0)
        params.setdefault("mod2_phase", 0.0)

    pump = params["pump_frequency"]
    dispersion = params["dispersion"]
    center_slit = (0.5 * pump) / dispersion
    params.setdefault("filter1_slit", center_slit)
    params.setdefault("filter2_slit", center_slit)

    omega_m = params["modulation_frequency"]
    mods = []
    for ch in ("mod1", "mod2"):
        wav_key = f"{ch}_waveform"
        if wav_key in params and params[wav_key] is not None and f"{ch}_depth" in items:
            raise ConfigParseError(
                f"give either {ch}_depth or {ch}_waveform, not both", line_of(wav_key))
        if wav_key in params and params[wav_key] is not None:
            try:
                phases = read_phase_waveform(params[wav_key])
            except OSError as exc:
                raise ConfigParseError(
                    f"cannot read waveform file '{params[wav_key]}': {exc}",
                    line_of(wav_key)) from exc
            mods.append(coeffs_from_waveform(phases, omega_m))
        else:
            mods.append(sinusoidal_coeffs(params.get(f"{ch}_depth", 0.0),
                                          params.get(f"{ch}_phase", 0.0), omega_m))

    for key in ("b0", "filter1_alpha_sq", "filter2_alpha_sq"):
        if params[key] < 0:
            raise ConfigParseError(f"{key} must be nonnegative", line_of(key))
    b0 = params["b0"]
    a0 = math.sqrt(1.0 + b0 * b0)
    try:
        # each filter is checked at its quoted width, then read per convention
        filter1, filter2 = (
            intensity_filter(GaussianFilter(fwhm=params[f"{ch}_fwhm"],
                                            alpha=math.sqrt(params[f"{ch}_alpha_sq"]),
                                            slit=params[f"{ch}_slit"], dispersion=dispersion),
                             params["fwhm_convention"])
            for ch in ("filter1", "filter2"))
        return ExperimentScenario(
            pump_frequency=pump,
            amplitudes=SpectralAmplitudes.flat(a0, b0),
            mod1=mods[0], mod2=mods[1], filter1=filter1, filter2=filter2,
            gate_ns=params["gate"], dispersion=dispersion)
    except ValueError as exc:
        raise ConfigParseError(f"invalid scenario: {exc}", None) from exc


def _scenario_params(scenario: ExperimentScenario) -> dict:
    """The ``[scenario]`` keys of a flat-band scenario with sinusoidal drives,
    in config-file order, with the values that rebuild it."""
    return {
        "pump_frequency": scenario.pump_frequency,
        "modulation_frequency": scenario.omega_m,
        "gate": scenario.gate_ns,
        "dispersion": scenario.dispersion,
        # every GaussianFilter holds an intensity FWHM
        "fwhm_convention": "intensity",
        "b0": abs(scenario.amplitudes.b0),
        "mod1_depth": scenario.mod1.depth, "mod1_phase": scenario.mod1.drive_phase,
        "mod2_depth": scenario.mod2.depth, "mod2_phase": scenario.mod2.drive_phase,
        "filter1_fwhm": scenario.filter1.fwhm,
        "filter1_alpha_sq": scenario.filter1.alpha ** 2,
        "filter1_slit": scenario.filter1.slit,
        "filter2_fwhm": scenario.filter2.fwhm,
        "filter2_alpha_sq": scenario.filter2.alpha ** 2,
        "filter2_slit": scenario.filter2.slit,
    }


def scenario_to_config(scenario: ExperimentScenario) -> str:
    """Serialize a scenario to the config schema (round-trips exactly).

    Only flat-band scenarios with sinusoidal modulators serialize; that
    covers every preset. Floats are written with repr so reparsing
    reproduces them bit for bit.
    """
    amps = scenario.amplitudes
    if not amps.is_flat:
        raise ConfigurationError("only flat-band scenarios serialize to config text")
    if amps.b0.imag != 0 or amps.a0.imag != 0:
        raise ConfigurationError("only real flat-band constants serialize to config text")
    for name, mod in (("mod1", scenario.mod1), ("mod2", scenario.mod2)):
        if mod.depth is None or mod.drive_phase is None:
            raise ConfigurationError(
                f"{name} was not built from a sinusoidal drive; cannot serialize")
    out = ["schema = 1", "", "[scenario]"]
    for key, value in _scenario_params(scenario).items():
        kind, unit = _SECTIONS["scenario"][key]
        if kind == "enum":
            out.append(f"{key} = {value}")
        else:
            out.append(f"{key} = {value!r} {unit}" if unit else f"{key} = {value!r}")
    return "\n".join(out) + "\n"


def scenario_hash(scenario: ExperimentScenario) -> str:
    import hashlib   # imported here, like json in emit_trace: only .meta files need it

    try:
        payload = scenario_to_config(scenario)
    except ConfigurationError:
        payload = repr(scenario)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_EMIT_CHUNK_ROWS = 1 << 14
_COLUMN_FORMATS = ("%.15g",) * 4 + ("%d",)


def _format_chunk(sep, columns, canvas):
    """Format one chunk of the five trace columns as rows, each ending in LF.

    Returns the rows as ASCII bytes. A column whose values in the chunk are
    bitwise identical is formatted once and shared by every row; the
    comparison is on the bits, so ``0.0`` and ``-0.0`` never fold together.
    The other columns are formatted a whole column at a time by
    ``textfmt.format_g15`` and ``textfmt.format_d``, which give the bytes of
    a per-value ``%.15g`` or ``%d``: values whose 15-digit rounding the
    vectorised arithmetic cannot certify, such as zeros, subnormals,
    non-finite values and near ties, go through ``%`` one distinct value
    at a time. Both write into ``canvas``, a ``textfmt.Canvas`` with room
    for the chunk, whose buffers ``emit_trace`` reuses from chunk to chunk.
    """
    from . import textfmt   # imported here, so that commands writing no CSV skip it
    n_rows = len(columns[0])
    canvas.start(n_rows)
    for i, (spec, col) in enumerate(zip(_COLUMN_FORMATS, columns)):
        bits = col.view(np.uint64)
        if (bits == bits[0]).all():
            canvas.text((spec % col[0].item()).encode("ascii"))
        elif spec == "%d":
            textfmt.format_d(col, canvas)
        else:
            textfmt.format_g15(col, canvas)
        canvas.text(b"\n" if i == len(columns) - 1 else sep.encode("ascii"))
    return canvas.rows()


def emit_trace(trace, path, scenario=None, seed=None, dwell=None,
               gnuplot_style=False):
    """Write a trace as CSV plus a sibling ``<path>.meta`` JSON file.

    CSV columns: delta_ghz, paired, accidental, total, n_index; 15
    significant digits, LF line endings, UTF-8. ``--gnuplot-style``
    switches to whitespace-separated columns with a '#' header.

    ``trace`` is a ``CorrelationTrace`` or a ``LazyTrace``; one row is
    written per sample of ``trace.delta_axis``. The output file is opened
    first, so an unwritable path fails before any formatting. The rows are
    then taken ``_EMIT_CHUNK_ROWS`` at a time with ``trace.chunk``, which
    for a ``LazyTrace`` evaluates the closed form on that slice of the axis
    only, so its output columns never exist at full length. Each chunk is
    formatted by ``_format_chunk`` into one ``textfmt.Canvas`` made for
    this call, whose word canvas and work arrays every chunk reuses; the
    vectorised formatter writes the same bytes as ``'%.15g' % v`` and
    ``'%d' % v`` per value.
    """
    import json   # imported here, like hashlib in scenario_hash: only .meta files need it

    from . import textfmt
    sep = " " if gnuplot_style else ","
    header = sep.join(("delta_ghz", "paired", "accidental", "total", "n_index"))
    if gnuplot_style:
        header = "# " + header
    n_rows = len(trace.delta_axis)
    canvas = textfmt.Canvas(min(n_rows, _EMIT_CHUNK_ROWS), len(_COLUMN_FORMATS))
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for start in range(0, n_rows, _EMIT_CHUNK_ROWS):
            part = trace.chunk(start, start + _EMIT_CHUNK_ROWS)
            # canonical 8-byte dtypes, so that _format_chunk can compare bits
            columns = [np.asarray(c, dtype=np.float64) for c in
                       (part.delta_axis, part.paired, part.accidental, part.total)]
            columns.append(np.asarray(part.n_index, dtype=np.int64))
            fh.write(_format_chunk(sep, columns, canvas))
    meta = {
        "tool": "modlab",
        "tool_version": __version__,
        "schema": 1,
        "scenario_sha256": scenario_hash(scenario) if scenario is not None else None,
        "seed": seed,
        "dwell_s": dwell,
        "generator": "pcg64",
        "rows": n_rows,
    }
    with open(str(path) + ".meta", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _read_counts_csv(path):
    deltas = []
    counts = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "delta_ghz,counts":
            raise ConfigurationError(
                f"fit data file must start with 'delta_ghz,counts' (got '{header}')")
        for lineno, raw in enumerate(fh, start=2):
            text = raw.strip()
            if not text:
                continue
            parts = text.split(",")
            if len(parts) != 2:
                raise ConfigurationError(f"{path}:{lineno}: expected two CSV columns")
            try:
                delta, count = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ConfigurationError(f"{path}:{lineno}: non-numeric value") from exc
            if not (math.isfinite(delta) and math.isfinite(count)):
                raise ConfigurationError(f"{path}:{lineno}: non-finite value")
            deltas.append(delta)
            counts.append(count)
    return np.asarray(deltas), np.asarray(counts)


def _require(value, message):
    if value is None:
        raise ConfigurationError(message)
    return value


@contextlib.contextmanager
def _warnings_as_lines():
    """Print each distinct ``RuntimeWarning`` raised inside the block to
    stderr as one ``warning: <message>`` line, as it happens, instead of
    the default two lines with a source line."""
    printed = set()

    def show(message, category, filename, lineno, file=None, line=None):
        if str(message) not in printed:
            printed.add(str(message))
            print(f"warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = show
        yield


def _write_trace(run, scenario, axis, out):
    """Build the closed form of ``scenario`` on ``axis`` and write it to ``out``.

    The model is built and the clipping warning printed before the file is
    opened; ``emit_trace`` then evaluates the rows chunk by chunk.
    """
    with _warnings_as_lines():
        trace = lazy_trace(scenario, axis)
        emit_trace(trace, out, scenario=scenario, gnuplot_style=run.gnuplot_style)
    return len(trace.delta_axis)


def _cmd_scan(run, scenario):
    scenario = _require(scenario, "scan needs a [scenario] section")
    out = _require(run.out_path, "scan needs an output path (--out or [run] out)")
    n_rows = _write_trace(run, scenario, run.delta_axis(), out)
    print(f"wrote {n_rows} rows to {out}")
    return 0


def _cmd_figure(run, scenario):
    case = _require(run.figure_case, "figure needs a [figure] section with a case")
    out = _require(run.out_path, "figure needs an output path (--out or [run] out)")
    scenario = figure_preset(case)
    if run.delta_min is not None:
        axis = run.delta_axis()
    else:
        axis = -150.0 + 0.5 * np.arange(601)
    n_rows = _write_trace(run, scenario, axis, out)
    print(f"wrote {case} trace ({n_rows} rows) to {out}")
    return 0


def _cmd_fit(run, scenario):
    scenario = _require(scenario, "fit needs a [scenario] section")
    if run.fit_data is not None:
        delta, counts = _read_counts_csv(run.fit_data)
        source = run.fit_data
    else:
        delta = run.delta_axis()
        trace = coincidence_trace(scenario, delta)
        counts = synthesize_counts(trace, dwell=run.dwell, seed=run.seed)
        source = f"synthetic (seed={run.seed}, dwell={run.dwell})"
    result = fit_scale(delta, counts, scenario, dwell=run.dwell)
    lines = [
        f"data = {source}",
        f"alpha1_sq = {result.alpha1_sq!r}",
        f"alpha2_sq = {result.alpha2_sq!r}",
        f"scale_product = {result.scale_product!r}",
        f"delta_offset_ghz = {result.delta_offset!r}",
        f"residual_rms = {result.residual_rms!r}",
        f"iterations = {result.iterations}",
    ]
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if run.out_path:
        with open(run.out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report)
    return 0


def _cmd_validate(run, scenario):
    code, results = run_validate(scenario)
    lines = [f"{status} {name} {detail}" for name, status, detail in results]
    n_fail = sum(1 for _, status, _ in results if status == "FAIL")
    lines.append(f"{'FAIL' if n_fail else 'OK'} {len(results)} checks, {n_fail} failures")
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if run.out_path:
        with open(run.out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="modlab",
        description="Frequency-domain correlation scans, figure presets, fits "
                    "and self-validation for modulated photon pairs.")
    parser.add_argument("command", choices=("scan", "figure", "fit", "validate"))
    parser.add_argument("--config", metavar="FILE", help="config file path")
    parser.add_argument("--out", metavar="FILE", help="output file path")
    parser.add_argument("--seed", type=int, metavar="N", help="random seed override")
    parser.add_argument("--dwell", type=float, metavar="S", help="dwell time override (s)")
    parser.add_argument("--gnuplot-style", action="store_true",
                        help="whitespace-separated output with a '#' header")
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigurationError(f"cannot read config file: {exc}") from exc
            run, scenario = parse_config(text, command=args.command)
        else:
            run, scenario = RunConfig(), None
        if args.out is not None:
            run.out_path = args.out
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigurationError("--seed must be nonnegative")
            run.seed = args.seed
        if args.dwell is not None:
            # a negated comparison, so that NaN fails it too
            if not 0 < args.dwell < math.inf:
                raise ConfigurationError("--dwell must be positive and finite")
            run.dwell = args.dwell
        run.gnuplot_style = args.gnuplot_style

        handler = {"scan": _cmd_scan, "figure": _cmd_figure,
                   "fit": _cmd_fit, "validate": _cmd_validate}[args.command]
        return handler(run, scenario)
    except (ConfigParseError, ConfigurationError, DomainError, ResolutionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FitError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ModlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
