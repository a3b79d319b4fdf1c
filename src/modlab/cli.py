"""Command-line front end: scans, figure presets, fits and self-validation.

Configuration is a plain-text file with named ``[section]`` headers and
``key = value`` pairs; values may carry a unit suffix which is checked
against the unit expected for that key. Unknown sections or keys are hard
errors so misspellings cannot silently fall back to defaults. The file
must start with ``schema = 1``.

Sections and keys:

  schema = 1                   (required, before any section)
  [run]      seed (int), dwell (s), out (path)
  [scan]     delta_min (GHz), delta_max (GHz), delta_step (GHz)
  [figure]   case (fig3a|fig3b|fig4a|fig4b); the preset is the whole
             scenario, so ``figure`` rejects a [scenario] section
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
Missing slits default to the degenerate spectrum center; missing modulator
keys default to an undriven channel.

Exit codes: 0 success, 1 validation/fit failure, 2 configuration error
(an unreadable ``--config`` or waveform file included), 3 I/O failure on an
output file or the fit-data file. A scan axis longer than ``MAX_SCAN_ROWS``
rows, a negative seed, a dwell that is not positive and finite or so long
that a Poisson mean passes numpy's limit, a filter FWHM whose squared
passband half-width overflows, and a non-finite fit-data value are
configuration errors. A scan or figure whose axis runs past the
composed modulator support still succeeds, with one ``warning:`` line on
stderr. Identical config and seed reproduce byte-identical output files;
the random generator is numpy's PCG64.
"""

import argparse
import hashlib
import json
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import modulation
from .correlator import (GaussianFilter, coincidence_full, coincidence_trace,
                         h2_profile, sideband_areas, singles_rate)
from .errors import (ConfigParseError, ConfigurationError, DomainError, FitError,
                     ModlabError, ResolutionError)
from .modulation import (bessel_j_series, coeffs_from_waveform, compose_nonlocal,
                         read_phase_waveform, sinusoidal_coeffs)
from .numerics import adaptive_simpson
from .scenario import (FIGURE_CASES, ExperimentScenario, figure_preset, fit_scale,
                       regime_report, synthesize_counts)
from .spdc_core import (CrystalProfile, FrequencyGrid, SpectralAmplitudes,
                        analytic_amplitudes, propagate_envelopes)

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
        "fwhm_convention": ("enum", ("intensity", "field")),
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


@dataclass
class RunConfig:
    """Resolved run parameters (config file plus command-line overrides)."""

    command: str
    config_path: str | None = None
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
        count = int(math.floor((self.delta_max - self.delta_min) / self.delta_step + 1e-9))
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


def parse_config(text: str, command: str = "scan", config_path: str | None = None):
    """Parse a config file into a RunConfig and (when present) a scenario.

    Fully validated: unknown sections/keys, unit mismatches, duplicate
    keys, ordering violations and out-of-range values all raise
    ConfigParseError with the offending line number.
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

    run = RunConfig(command=command, config_path=config_path)
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

    scenario = None
    scn_items = {k: v for (sec, k), v in values.items() if sec == "scenario"}
    if scn_items and command == "figure":
        raise ConfigParseError(
            "figure takes its scenario from [figure] case; remove the [scenario] section",
            min(line for (sec, _), line in lines.items() if sec == "scenario"))
    if scn_items:
        scenario = _build_scenario(scn_items, lines)
    return run, scenario


def _build_scenario(items, lines):
    def line_of(key):
        return lines.get(("scenario", key))

    if "preset" in items:
        base = figure_preset(items["preset"])
        params = {
            "pump_frequency": base.pump_frequency,
            "modulation_frequency": base.omega_m,
            "gate": base.gate_ns,
            "dispersion": base.dispersion,
            "fwhm_convention": base.fwhm_convention,
            "b0": abs(base.amplitudes.b0),
            "mod1_depth": base.mod1.depth, "mod1_phase": base.mod1.drive_phase,
            "mod2_depth": base.mod2.depth, "mod2_phase": base.mod2.drive_phase,
            "filter1_fwhm": base.filter1.fwhm, "filter1_alpha_sq": base.filter1.alpha ** 2,
            "filter1_slit": base.filter1.slit,
            "filter2_fwhm": base.filter2.fwhm, "filter2_alpha_sq": base.filter2.alpha ** 2,
            "filter2_slit": base.filter2.slit,
        }
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

    b0 = params["b0"]
    if b0 < 0:
        raise ConfigParseError("b0 must be nonnegative", line_of("b0"))
    a0 = math.sqrt(1.0 + b0 * b0)
    try:
        return ExperimentScenario(
            pump_frequency=pump,
            amplitudes=SpectralAmplitudes.flat(a0, b0),
            mod1=mods[0], mod2=mods[1],
            filter1=GaussianFilter(fwhm=params["filter1_fwhm"],
                                   alpha=math.sqrt(params["filter1_alpha_sq"]),
                                   slit=params["filter1_slit"], dispersion=dispersion),
            filter2=GaussianFilter(fwhm=params["filter2_fwhm"],
                                   alpha=math.sqrt(params["filter2_alpha_sq"]),
                                   slit=params["filter2_slit"], dispersion=dispersion),
            gate_ns=params["gate"], dispersion=dispersion,
            fwhm_convention=params["fwhm_convention"])
    except ValueError as exc:
        raise ConfigParseError(f"invalid scenario: {exc}", None) from exc


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
    out = [
        "schema = 1",
        "",
        "[scenario]",
        f"pump_frequency = {scenario.pump_frequency!r} GHz",
        f"modulation_frequency = {scenario.omega_m!r} GHz",
        f"gate = {scenario.gate_ns!r} ns",
        f"dispersion = {scenario.dispersion!r} GHz/mm",
        f"fwhm_convention = {scenario.fwhm_convention}",
        f"b0 = {abs(amps.b0)!r}",
        f"mod1_depth = {scenario.mod1.depth!r} rad",
        f"mod1_phase = {scenario.mod1.drive_phase!r} rad",
        f"mod2_depth = {scenario.mod2.depth!r} rad",
        f"mod2_phase = {scenario.mod2.drive_phase!r} rad",
        f"filter1_fwhm = {scenario.filter1.fwhm!r} GHz",
        f"filter1_alpha_sq = {scenario.filter1.alpha ** 2!r}",
        f"filter1_slit = {scenario.filter1.slit!r} mm",
        f"filter2_fwhm = {scenario.filter2.fwhm!r} GHz",
        f"filter2_alpha_sq = {scenario.filter2.alpha ** 2!r}",
        f"filter2_slit = {scenario.filter2.slit!r} mm",
    ]
    return "\n".join(out) + "\n"


def scenario_hash(scenario: ExperimentScenario) -> str:
    try:
        payload = scenario_to_config(scenario)
    except ConfigurationError:
        payload = repr(scenario)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_EMIT_CHUNK_ROWS = 1 << 14
_COLUMN_FORMATS = ("%.15g",) * 4 + ("%d",)


def _format_chunk(sep, columns):
    """Format one chunk of the five trace columns as rows, each ending in LF.

    Returns the rows as ASCII bytes. A column whose values in the chunk are
    bitwise identical is formatted once and shared by every row; the
    comparison is on the bits, so ``0.0`` and ``-0.0`` never fold together.
    The other columns are formatted a whole column at a time by
    ``textfmt.format_g15`` and ``textfmt.format_d``, which give the bytes of
    a per-value ``%.15g`` or ``%d``: values whose 15-digit rounding the
    vectorised arithmetic cannot certify, such as zeros, subnormals,
    non-finite values and near ties, go through ``%`` one distinct value
    at a time.
    """
    from . import textfmt   # imported here, so that commands writing no CSV skip it
    fields = []
    for spec, col in zip(_COLUMN_FORMATS, columns):
        bits = col.view(np.uint64)
        if (bits == bits[0]).all():
            fields.append((spec % col[0].item()).encode("ascii"))
        elif spec == "%d":
            fields.append(textfmt.format_d(col))
        else:
            fields.append(textfmt.format_g15(col))
    return textfmt.join_rows(fields, sep, len(columns[0]))


def emit_trace(trace, path, scenario=None, seed=None, dwell=None,
               gnuplot_style=False):
    """Write a trace as CSV plus a sibling ``<path>.meta`` JSON file.

    CSV columns: delta_ghz, paired, accidental, total, n_index; 15
    significant digits, LF line endings, UTF-8. ``--gnuplot-style``
    switches to whitespace-separated columns with a '#' header.

    The output file is opened first, so an unwritable path fails before
    any formatting. Rows are then formatted and written in chunks of
    ``_EMIT_CHUNK_ROWS`` by ``_format_chunk``, whose vectorised formatter
    writes the same bytes as ``'%.15g' % v`` and ``'%d' % v`` per value.
    """
    sep = " " if gnuplot_style else ","
    header = sep.join(("delta_ghz", "paired", "accidental", "total", "n_index"))
    if gnuplot_style:
        header = "# " + header
    # canonical 8-byte dtypes, so that _format_chunk can compare bits
    columns = [np.asarray(c, dtype=np.float64) for c in
               (trace.delta_axis, trace.paired, trace.accidental, trace.total)]
    columns.append(np.asarray(trace.n_index, dtype=np.int64))
    n_rows = len(trace.delta_axis)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for start in range(0, n_rows, _EMIT_CHUNK_ROWS):
            fh.write(_format_chunk(sep, [c[start:start + _EMIT_CHUNK_ROWS] for c in columns]))
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
# validation suite
# ---------------------------------------------------------------------------

def _check(name, condition, detail):
    return (name, "PASS" if condition else "FAIL", detail)


def _validate_bessel():
    worst = 0.0
    for x in (0.5, 1.5, 3.0, 5.0):
        seq = modulation.bessel_j_sequence(20, x)
        for n in range(21):
            worst = max(worst, abs(seq[n] - bessel_j_series(n, x)))
    return _check("bessel_recurrence_vs_series", worst <= 1e-12, f"max_abs_err={worst:.3e}")


def _validate_parseval():
    worst = 0.0
    for depth in (0.5, 1.0, 1.5, 2.5):
        mod = sinusoidal_coeffs(depth, 0.3, 30.0)
        worst = max(worst, abs(mod.total_power() - 1.0))
    return _check("modulator_parseval", worst <= 1e-10, f"max_abs_err={worst:.3e}")


def _validate_addition_theorem():
    worst = 0.0
    depths = (0.5, 1.0, 1.5, 2.5)
    for d1 in depths:
        for d2 in depths:
            for rel_phase, total in ((0.0, d1 + d2), (math.pi, d1 - d2)):
                q = sinusoidal_coeffs(d1, 0.0, 30.0)
                r = sinusoidal_coeffs(d2, rel_phase, 30.0)
                s = compose_nonlocal(q, r)
                for n in range(-s.n_max, s.n_max + 1):
                    expected = abs(bessel_j_series(n, total))
                    worst = max(worst, abs(abs(s.coefficient(n)) - expected))
    return _check("bessel_addition_theorem", worst <= 1e-9, f"max_abs_err={worst:.3e}")


def _validate_waveform_dft():
    theta = 2.0 * math.pi * np.arange(512) / 512
    wav = coeffs_from_waveform(1.5 * np.cos(theta), 30.0)
    ana = sinusoidal_coeffs(1.5, 0.0, 30.0)
    worst = 0.0
    for k in range(-max(wav.k_max, ana.k_max), max(wav.k_max, ana.k_max) + 1):
        worst = max(worst, abs(wav.coefficient(k) - ana.coefficient(k)))
    return _check("waveform_dft_agreement", worst <= 1e-10, f"max_abs_err={worst:.3e}")


def _test_propagation():
    pump = 2.0 * 281759.0
    grid = FrequencyGrid(center=0.5 * pump, span=400.0, points=401, pump_frequency=pump)
    detuning = grid.omegas - 0.5 * pump
    kappa = 0.05 * np.exp(-detuning ** 2 / (2.0 * 150.0 ** 2))
    delta_k = 2e-5 * detuning ** 2
    profile = CrystalProfile(kappa=kappa, delta_k=delta_k, length=20.0)
    return propagate_envelopes(profile, grid, steps=256)


def _validate_unitarity(amps):
    res = amps.unitarity_residual()
    return _check("unitarity_propagation", res <= 1e-9, f"max_residual={res:.3e}")


def _validate_symmetry(amps):
    res = amps.symmetry_residual()
    return _check("conjugate_symmetry", res <= 1e-9, f"max_residual={res:.3e}")


def _rk4_error(steps):
    pump = 1000.0
    grid = FrequencyGrid(center=500.0, span=10.0, points=3, pump_frequency=pump)
    profile = CrystalProfile.constant(grid, 0.05, 0.2, 20.0)
    amps = propagate_envelopes(profile, grid, steps=steps)
    a_ref, b_ref = analytic_amplitudes(0.05, 0.2, 20.0)
    return max(abs(amps.a0 - a_ref), abs(amps.b0 - b_ref))


def _validate_rk4_convergence():
    e16, e32, e64 = _rk4_error(16), _rk4_error(32), _rk4_error(64)
    r1 = e16 / max(e32, 1e-300)
    r2 = e32 / max(e64, 1e-300)
    ok = r1 >= 12.0 and r2 >= 12.0
    return _check("rk4_convergence", ok, f"ratios={r1:.1f},{r2:.1f}")


def _validate_analytic_agreement():
    worst = 0.0
    pump = 1000.0
    grid = FrequencyGrid(center=500.0, span=10.0, points=3, pump_frequency=pump)
    for dk in (0.0, 0.2):
        profile = CrystalProfile.constant(grid, 0.05, dk, 20.0)
        amps = propagate_envelopes(profile, grid, steps=256)
        a_ref, b_ref = analytic_amplitudes(0.05, dk, 20.0)
        worst = max(worst, abs(amps.a0 - a_ref), abs(amps.b0 - b_ref))
    return _check("analytic_oracle_agreement", worst <= 1e-10, f"max_abs_err={worst:.3e}")


def _validate_singles():
    filt = GaussianFilter(fwhm=8.5, alpha=1.0, slit=100.0, dispersion=210.0)
    amps = SpectralAmplitudes.flat(math.sqrt(2.0), 1.0)
    mod = sinusoidal_coeffs(0.0, 0.0, 30.0)
    rate = singles_rate(amps, mod, filt, "intensity")
    expected = 1.0 / (4.0 * math.pi) * 8.5 * math.sqrt(math.pi / (4.0 * math.log(2.0)))
    err = abs(rate - expected) / expected
    return _check("singles_closed_form", err <= 1e-10, f"rel_err={err:.3e}")


def _validate_h2():
    f1 = GaussianFilter(fwhm=8.5, alpha=1.0, slit=100.0, dispersion=210.0)
    f2 = GaussianFilter(fwhm=8.5, alpha=1.0, slit=100.0, dispersion=210.0)
    h2 = h2_profile(f1, f2, "intensity")
    fwhm_err = abs(h2.fwhm - 8.5 * math.sqrt(2.0))
    overlap = adaptive_simpson(
        lambda w: f1.intensity_response(w) * f2.intensity_response(w),
        -60.0, 60.0, 1e-14)
    peak_err = abs(h2.peak - overlap) / overlap
    ok = fwhm_err <= 1e-9 and peak_err <= 1e-10
    return _check("h2_lineshape", ok, f"fwhm_err={fwhm_err:.3e} peak_rel_err={peak_err:.3e}")


def _validate_sideband_positions():
    scn = figure_preset("fig3b")
    delta = np.arange(-150.0, 150.5, 0.5)
    trace = coincidence_trace(scn, delta)
    p = trace.paired
    maxima = [delta[i] for i in range(1, len(p) - 1)
              if p[i] > p[i - 1] and p[i] >= p[i + 1] and p[i] > 1e-6 * p.max()]
    worst = max(abs(m - 30.0 * round(m / 30.0)) for m in maxima)
    return _check("sideband_positions", worst <= 0.5, f"max_offset={worst:.3g} GHz")


def _validate_area_conservation():
    totals = []
    delta = np.arange(-345.0, 345.5, 0.5)
    for case in FIGURE_CASES:
        with warnings.catch_warnings():
            # the unmodulated case has no sidebands beyond n=0 by design
            warnings.simplefilter("ignore", RuntimeWarning)
            trace = coincidence_trace(figure_preset(case), delta)
        totals.append(sum(sideband_areas(trace).values()))
    spread = (max(totals) - min(totals)) / max(totals)
    return _check("area_conservation", spread <= 1e-9, f"rel_spread={spread:.3e}")


def _validate_trace_symmetry():
    scn = figure_preset("fig3b")
    delta = np.arange(-150.25, 150.5, 0.5)   # avoids exact window boundaries
    trace = coincidence_trace(scn, delta)
    diff = np.max(np.abs(trace.paired - trace.paired[::-1]))
    rel = diff / trace.paired.max()
    return _check("trace_symmetry", rel <= 1e-9, f"rel_err={rel:.3e}")


def _validate_accidental_floor():
    scn = figure_preset("fig3b")
    delta = np.arange(-345.0, 345.5, 0.5)
    trace = coincidence_trace(scn, delta)
    floor = trace.accidental[0]
    ok_min = bool(np.all(trace.total >= floor))
    far = np.abs(delta) > 250.0   # beyond the populated sideband comb
    tail = float(np.max(trace.paired[far]))
    ok_far = tail <= 1e-6 * trace.paired.max()
    return _check("accidental_floor", ok_min and ok_far,
                  f"tail_fraction={tail / trace.paired.max():.3e}")


def _validate_tier_agreement(scenario):
    report = regime_report(scenario)
    if not report.valid:
        return ("tier_agreement", "SKIP",
                f"out-of-regime (ratios={report.mod_to_filter:.2f},{report.filter_gate:.2f})")
    delta = np.arange(-150.0, 151.0, 1.0)
    trace = coincidence_trace(scenario, delta)
    full = coincidence_full(scenario, delta)
    rel_rms = (np.sqrt(np.mean((full.total - trace.total) ** 2))
               / np.sqrt(np.mean(trace.total ** 2)))
    return _check("tier_agreement", rel_rms <= 0.01, f"rel_rms={rel_rms:.3e}")


def run_validate(scenario: ExperimentScenario | None = None):
    """Execute the invariant suite of every module; returns (exit_code, results).

    The tier-agreement comparison runs on the supplied scenario (the fig4a
    preset by default) and is skipped, not failed, when that scenario is
    outside the closed-form model's validity regime.
    """
    if scenario is None:
        scenario = figure_preset("fig4a")
    amps = _test_propagation()
    results = [
        _validate_bessel(),
        _validate_parseval(),
        _validate_addition_theorem(),
        _validate_waveform_dft(),
        _validate_unitarity(amps),
        _validate_symmetry(amps),
        _validate_rk4_convergence(),
        _validate_analytic_agreement(),
        _validate_singles(),
        _validate_h2(),
        _validate_sideband_positions(),
        _validate_area_conservation(),
        _validate_trace_symmetry(),
        _validate_accidental_floor(),
        _validate_tier_agreement(scenario),
    ]
    code = 0 if all(status != "FAIL" for _, status, _ in results) else 1
    return code, results


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


def _trace(scenario, axis):
    """``coincidence_trace``, with each warning it issues printed to stderr
    as one ``warning: <message>`` line instead of the default two."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        trace = coincidence_trace(scenario, axis)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return trace


def _cmd_scan(run, scenario):
    scenario = _require(scenario, "scan needs a [scenario] section")
    out = _require(run.out_path, "scan needs an output path (--out or [run] out)")
    trace = _trace(scenario, run.delta_axis())
    emit_trace(trace, out, scenario=scenario, gnuplot_style=run.gnuplot_style)
    print(f"wrote {len(trace.delta_axis)} rows to {out}")
    return 0


def _cmd_figure(run, scenario):
    case = _require(run.figure_case, "figure needs a [figure] section with a case")
    out = _require(run.out_path, "figure needs an output path (--out or [run] out)")
    scenario = figure_preset(case)
    if run.delta_min is not None:
        axis = run.delta_axis()
    else:
        axis = -150.0 + 0.5 * np.arange(601)
    trace = _trace(scenario, axis)
    emit_trace(trace, out, scenario=scenario, gnuplot_style=run.gnuplot_style)
    print(f"wrote {case} trace ({len(axis)} rows) to {out}")
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
            run, scenario = parse_config(text, command=args.command,
                                         config_path=args.config)
        else:
            run, scenario = RunConfig(command=args.command), None
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
