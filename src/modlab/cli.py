"""Command-line front end: scans, figure presets, fits and self-validation.

This module parses arguments and config files, writes trace CSVs and
prints reports. The invariant suite that ``validate`` reports on is
``modlab.checks``; ``run_validate`` is bound here from there.

Configuration is a plain-text file with named ``[section]`` headers and
``key = value`` pairs; values may carry a unit suffix which is checked
against the unit expected for that key. Unknown sections or keys are hard
errors so misspellings cannot silently fall back to defaults, and so is a
section the command does not read. The file must start with
``schema = 1``, given once.

Sections each command reads:

  scan       [run] [scan] [scenario]
  figure     [run] [scan] [figure]; the preset named by [figure] case is
             the whole scenario
  fit        [run] [scan] [fit] [scenario]
  validate   [run] [scenario]

Sections and keys:

  schema = 1                   (required, before any section)
  [run]      seed (int), dwell (s), out (path)
  [scan]     delta_min (GHz), delta_max (GHz), delta_step (GHz), all three
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
applied, as each filter is built, to the widths the file quotes; a preset's
own widths are intensity FWHMs, so every scenario holds intensity FWHMs.
Missing slits default to the degenerate spectrum center; missing modulator
keys default to an undriven channel (``_SCENARIO_DEFAULTS``).

Each key's value is checked at its own line: its unit, that it is finite,
and, for the keys of ``_SIGN_RULES`` (``delta_step`` and ``dwell``
positive; ``seed``, ``b0`` and the transmission scales nonnegative), its
sign. A sign error is thus reported at the key's line, in file order with
the other per-key errors and before any rule that relates keys or sections.

``--seed`` and ``--dwell`` are the ``[run]`` keys ``seed`` and ``dwell``
given on the command line: ``_parse_scalar`` reads their text by the key's
kind, unit, finiteness check and ``_SIGN_RULES`` entry, and an error names
the flag. An ``int`` key given a number that is no integer (``1.5``,
``1e3``) is told so; text that is no number is non-numeric. ``--out`` and
``--config`` are paths, taken as given. A flag is matched whole, never by a
prefix (``--se``), and the argument after a value flag is its value even
when it starts with one dash (``--dwell -1e5`` is ``--dwell=-1e5``).

Exit codes: 0 success, 1 a failed ``validate`` check, 2 configuration error
(an unreadable ``--config`` or waveform file included), 3 I/O failure on an
output file or the fit-data file; a write error names its file, as an
open error does. A usage error (an unknown command or
option, a missing command, a flag without its value) is a configuration
error as well: one ``config error:`` line and exit 2, from ``main(argv)``
too, which returns the code rather than raising ``SystemExit``. Any other
``ModlabError`` also ends with 1 and one ``error:`` line; no input is known
to reach it. Every input
file is read by ``_read_text``: a config, fit-data or waveform file that is
not UTF-8 text is a configuration error, named in one line with the offset
of its first bad byte. A ``[scan]`` section without all three
keys or a ``[figure]`` section without ``case`` (a bare header included), a
``[scenario]`` header with neither a preset nor the explicit keys, a scan
axis longer than ``MAX_SCAN_ROWS`` rows, a scan axis whose span or row count
is not finite or whose step is below two units of the last of the 15 digits
that ``delta_ghz`` prints at its larger end (100 GHz at 1e16 GHz; a finer
step could print two rows with the same delta), a negative seed, a dwell
that is not positive and finite, a peak rate and dwell whose Poisson mean
passes numpy's limit, a filter FWHM whose squared passband half-width
overflows, an off-scale filter slit, a negative transmission scale, a |B0|,
gate or transmission scales so large that the coincidence rates overflow, a
modulation depth above 157 rad in magnitude (``modulation.MAX_DEPTH``), and
a non-finite fit-data or waveform value are configuration errors. A scan,
figure or synthetic fit whose axis runs past the composed modulator support
(``SidebandModel.clips``) still succeeds, with one ``warning:`` line on
stderr before any output file is opened. Identical config and seed reproduce byte-identical output files; the
random generator is numpy's PCG64.

``scan`` and ``figure`` hand ``emit_trace`` a ``correlator.LazyTrace``: the
closed-form ``SidebandModel`` and the delta axis as a
``correlator.UniformAxis`` (start, step and row count), which it evaluates
and formats chunk by chunk. No column, the axis included, exists at full
length, and each chunk's text is written 4,096 lines at a time, so the
memory a scan needs does not depend on its row count: a ``scan`` of 10^5,
10^6 or 10^7 rows peaks at 36.28, 35.27 and 35.67 MB of RSS (Python
3.11, numpy 2.4, 2-vCPU x86-64 Linux, ``os.wait4``), where a full-length
axis took the 10^7-row peak to 181 MB. ``fit`` builds the whole axis,
because its profile search evaluates the model on the whole array at each
offset.

A trace leaves a CSV at ``--out`` and a ``<out>.meta`` JSON beside it,
written last, so only a ``.meta`` that is present and not empty marks a
complete CSV; ``emit_trace`` states when each file is truncated, and how a
device or FIFO ``.meta`` is written.

A trace of two or more chunks (more than 16,384 rows) on a host with two
or more CPUs is written by two processes: ``emit_trace`` forks one helper
after flushing the header, the two evaluate and format alternate chunks at
once, and a one-byte token passed over a pair of pipes gives each the turn
to write its chunk through the shared file descriptor, in chunk order, so
the bytes are those of one process. The helper prints nothing, ends in
``os._exit`` and is reaped before ``emit_trace`` returns or raises; if it
fails, the command exits 3 with one ``i/o error:`` line naming its exit
status. On a 10^6-row ``scan`` (2-vCPU x86-64 Linux host, Python 3.11,
numpy 2.4) the in-process ``emit`` stage takes 0.31 s where one process
took 0.49 s (medians of 12 alternating pairs), and the command 0.54 s of
wall time where it took 0.80 s (20 alternating pairs, ``os.wait4``), at
about the same CPU time. Every ``figure``, any trace of one chunk and any
host with one CPU run in one process.

As a process, through ``python -m modlab.cli`` or the ``modlab`` console
script, a command enters at ``process_main``: it runs ``main()``, calls
``gc.freeze()`` and exits with the command's code. The interpreter's closing
garbage collections skip frozen objects, and at exit nearly every object
alive is one that the numpy and modlab imports made; walking them took 27 to
30 ms of each command, 7 ms after the freeze (16 alternating subprocess
pairs per command, Python 3.11, numpy 2.4, x86-64 Linux). Unlike
``os._exit`` the freeze keeps the rest of shutdown: stdout and stderr are
flushed and ``atexit`` handlers run. ``main(argv)``, for in-process callers,
never freezes.
"""

import argparse
import contextlib
import gc
import math
import os
import sys
import warnings
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import __version__, stages
from .checks import run_validate
from .correlator import (CLIPPING_MESSAGE, FWHM_CONVENTIONS, GaussianFilter, LazyTrace,
                         UniformAxis, intensity_filter)
from .errors import (ConfigParseError, ConfigurationError, DomainError, ModlabError,
                     ResolutionError)
from .modulation import coeffs_from_waveform, sinusoidal_coeffs
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

# the keys a section must hold once it is present, even as a bare header
_REQUIRED_KEYS = {"scan": ("delta_min", "delta_max", "delta_step"), "figure": ("case",)}

# the sign each of these keys must have, checked at the key's own line
_SIGN_RULES = {"delta_step": "positive", "dwell": "positive", "seed": "nonnegative",
               "b0": "nonnegative", "filter1_alpha_sq": "nonnegative",
               "filter2_alpha_sq": "nonnegative"}

# the explicit-scenario keys a file may leave out, with the values they take;
# every other [scenario] key but the preset, waveforms and slits is required
_SCENARIO_DEFAULTS = {"fwhm_convention": "intensity", "mod1_depth": 0.0, "mod1_phase": 0.0,
                      "mod2_depth": 0.0, "mod2_phase": 0.0}
_SCENARIO_REQUIRED = tuple(
    key for key in _SECTIONS["scenario"] if key != "preset"
    and not key.endswith(("_waveform", "_slit")) and key not in _SCENARIO_DEFAULTS)

@dataclass
class RunConfig:
    """Resolved run parameters (config file plus command-line overrides),
    each field named after the config key that sets it."""

    out: str | None = None
    delta_min: float | None = None
    delta_max: float | None = None
    delta_step: float | None = None
    case: str | None = None
    seed: int = 0
    dwell: float = 20.0
    gnuplot_style: bool = False
    data: str | None = None

    def delta_axis(self):
        if self.delta_min is None:
            raise ConfigurationError("missing [scan] section with the delta axis")
        steps = (self.delta_max - self.delta_min) / self.delta_step
        if not math.isfinite(steps):
            raise ConfigurationError(
                f"delta axis from {self.delta_min:g} to {self.delta_max:g} GHz in steps of "
                f"{self.delta_step:g} GHz has no finite row count")
        # '%.15g' writes delta_ghz; at the axis's larger end, of decimal
        # exponent e there, one unit of its last digit is 10^(e-14) GHz. Each
        # text lies within half a unit of its float, so rows at least two
        # units apart always print differently. A unit is more than 4.5 float
        # spacings, so no two rows of an accepted axis share a float either.
        largest = max(abs(self.delta_min), abs(self.delta_max))
        unit = 10.0 ** (int(("%.14e" % largest).partition("e")[2]) - 14)
        if largest > 0 and self.delta_step < 2.0 * unit:
            raise ConfigurationError(
                f"delta_step {self.delta_step:g} GHz is below twice the {unit:g} GHz "
                f"resolution of the 15-digit delta_ghz column at {largest:g} GHz; "
                "adjacent rows would print the same delta")
        count = int(math.floor(steps + 1e-9))
        if count + 1 > MAX_SCAN_ROWS:
            raise ConfigurationError(
                f"delta axis would have {count + 1} rows, more than the "
                f"limit of {MAX_SCAN_ROWS}; increase delta_step")
        return UniformAxis(self.delta_min, self.delta_step, count + 1)


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
        value = float(parts[0])
    except ValueError as exc:
        raise ConfigParseError(f"non-numeric value for key '{key}': '{parts[0]}'", line) from exc
    if kind == "int":
        try:
            value = int(parts[0])
        except ValueError as exc:
            raise ConfigParseError(
                f"key '{key}' takes an integer (got '{parts[0]}')", line) from exc
    elif not math.isfinite(value):
        raise ConfigParseError(f"non-finite value for key '{key}': '{parts[0]}'", line)
    sign = _SIGN_RULES.get(key)
    if sign is not None and not (value > 0 if sign == "positive" else value >= 0):
        raise ConfigParseError(f"{key} must be {sign}", line)
    return value


def _tokenize(text):
    """Yield (line_number, section_or_None, key, raw_value).

    ``text`` comes from ``_read_text``, so lines end at LF only: a form feed
    or U+2028 within a line is whitespace, not a line end as
    ``str.splitlines`` has it.
    """
    section = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
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


def parse_config(text: str, command: str):
    """Parse a config file into a RunConfig and (when present) a scenario.

    Fully validated: unknown sections/keys, sections ``command`` does not
    read, unit mismatches, duplicate keys (``schema`` included), ordering
    violations and out-of-range values all raise ConfigParseError with the
    offending line number.
    """
    values = {}     # (section, key) -> value
    lines = {}
    headers = {}    # section -> line of its first header, so an empty section counts
    saw_schema = False
    for lineno, section, key, raw in _tokenize(text):
        if key is None:
            headers.setdefault(section, lineno)
            continue
        if section is None:
            if key != "schema":
                raise ConfigParseError(
                    f"key '{key}' appears before any section (only 'schema' may)", lineno)
            if saw_schema:
                raise ConfigParseError("duplicate key 'schema'", lineno)
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
    # a section's message names its first key, or its header when it has none
    first_key = {}
    for (section, _), line in lines.items():
        first_key.setdefault(section, line)
    for section, header in headers.items():
        if section not in _COMMAND_SECTIONS[command]:
            if (command, section) == ("figure", "scenario"):
                message = ("figure takes its scenario from [figure] case; "
                           "remove the [scenario] section")
            else:
                message = f"{command} does not read a [{section}] section; remove it"
            raise ConfigParseError(message, first_key.get(section, header))

    for section, keys in _REQUIRED_KEYS.items():
        for key in keys:
            if section in headers and (section, key) not in values:
                raise ConfigParseError(f"[{section}] section is missing key '{key}'",
                                       headers[section])

    run = RunConfig(**{k: v for (sec, k), v in values.items() if sec != "scenario"})
    if "scan" in headers and run.delta_min >= run.delta_max:
        raise ConfigParseError("delta_min must lie below delta_max",
                               lines[("scan", "delta_min")])

    scn_items = {k: v for (sec, k), v in values.items() if sec == "scenario"}
    scenario = _build_scenario(scn_items, lines) if "scenario" in headers else None
    return run, scenario


def _build_scenario(items, lines):
    def line_of(key):
        return lines.get(("scenario", key))

    if "preset" in items:
        params = _scenario_params(figure_preset(items["preset"]))
        params.update({k: v for k, v in items.items() if k != "preset"})
    else:
        missing = [k for k in _SCENARIO_REQUIRED if k not in items]
        if missing:
            raise ConfigParseError(
                "explicit scenario is missing required keys: " + ", ".join(missing), None)
        params = {**_SCENARIO_DEFAULTS, **items}

    pump = params["pump_frequency"]
    dispersion = params["dispersion"]
    # a slit the file leaves out sits at the degenerate frequency; a zero
    # dispersion, like a negative one, is refused when the filters are built
    center_slit = (0.5 * pump) / dispersion if dispersion else 0.0

    omega_m = params["modulation_frequency"]
    mods = []
    for ch in ("mod1", "mod2"):
        wav_key = f"{ch}_waveform"
        path = items.get(wav_key)
        if path is None:
            mods.append(sinusoidal_coeffs(params[f"{ch}_depth"], params[f"{ch}_phase"], omega_m))
            continue
        if f"{ch}_depth" in items:
            raise ConfigParseError(
                f"give either {ch}_depth or {ch}_waveform, not both", line_of(wav_key))
        try:
            phases = read_phase_waveform(path)
        except OSError as exc:
            raise ConfigParseError(
                f"cannot read waveform file '{path}': {exc}", line_of(wav_key)) from exc
        mods.append(coeffs_from_waveform(phases, omega_m))

    b0 = params["b0"]
    a0 = math.sqrt(1.0 + b0 * b0)
    try:
        # each filter is checked at its width, then a width the file quotes is
        # read per convention; a preset's own widths are intensity FWHMs
        filter1, filter2 = (
            intensity_filter(GaussianFilter(fwhm=params[f"{ch}_fwhm"],
                                            alpha=math.sqrt(params[f"{ch}_alpha_sq"]),
                                            slit=params.get(f"{ch}_slit", center_slit),
                                            dispersion=dispersion),
                             params["fwhm_convention"] if f"{ch}_fwhm" in items
                             else "intensity")
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


def _exact_bytes(value) -> bytes:
    """Exact encoding of ``value``: a dataclass as its type and every field,
    an array as its dtype, shape and raw bytes, anything else by repr."""
    if is_dataclass(value):
        parts = (f.name.encode("ascii") + b"=" + _exact_bytes(getattr(value, f.name))
                 for f in fields(value))
        return type(value).__name__.encode("ascii") + b"(" + b",".join(parts) + b")"
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}:".encode("ascii") + value.tobytes()
    return repr(value).encode("utf-8")


def scenario_hash(scenario: ExperimentScenario) -> str:
    """SHA-256 of the config text, or of ``_exact_bytes`` for a scenario without one."""
    import hashlib   # imported here, like json in emit_trace: only .meta files need it

    try:
        payload = scenario_to_config(scenario).encode("utf-8")
    except ConfigurationError:
        payload = _exact_bytes(scenario)
    return hashlib.sha256(payload).hexdigest()


_EMIT_CHUNK_ROWS = 1 << 14


@contextlib.contextmanager
def _naming(path):
    """Re-raise an ``OSError`` that names no file, such as a write error, as
    one naming ``path``, as an error from ``open`` does."""
    try:
        yield
    except OSError as exc:
        if exc.filename is None and exc.errno is not None:
            exc.filename = str(path)
        raise


def _write_rows(fh, trace, sep):
    """Evaluate, format and write the rows of ``trace`` to ``fh``, chunk by
    chunk: in this process alone, or, for two or more chunks on a host with
    two or more CPUs, the even chunks here and the odd ones in a forked
    helper, taking turns (see ``emit_trace``)."""
    from . import textfmt   # imported here, so that commands writing no CSV skip it
    n_rows = len(trace.delta_axis)
    # one canvas, made before any fork; made after it, in each process, it
    # lifted the peak RSS of a 10^6-row scan by 1.3 to 1.5 MB. It is freed
    # on return, before the .meta step imports hashlib, whose 3.6 MB now
    # set the peak, 0.4 to 0.5 MB above the formatting's; kept, it lifted
    # the 10^7-row peak from 37.9 to 39.9 MB.
    canvas = textfmt.Canvas(min(n_rows, _EMIT_CHUNK_ROWS), 5)

    def write_chunks(rank, processes, turn):
        """The chunks ``rank``, ``rank + processes``, ...; with ``turn``, the
        (read, write) ends of this process's turn pipes, each is written only
        while this process holds the turn token, which the writer of chunk 0
        holds at the start and every writer passes on after each chunk."""
        for start in range(rank * _EMIT_CHUNK_ROWS, n_rows, processes * _EMIT_CHUNK_ROWS):
            part = trace.chunk(start, start + _EMIT_CHUNK_ROWS)
            blocks = textfmt.format_rows(sep, (part.delta_axis, part.paired, part.accidental,
                                               part.total, part.n_index), canvas)
            if turn and start > 0 and not os.read(turn[0], 1):
                return      # the other process ended without passing the turn
            # each block is laid out and translated here, with the turn held,
            # and dropped by writelines once written, before the next is made:
            # translated before the turn, the chunk's whole 1.2 MB of text
            # would be alive at once. part stays alive until the next chunk:
            # freed before the blocks, it raised the 10^6-row peak RSS from
            # 35.28 to 35.89 MB and ran slower (12 alternating rounds)
            fh.writelines(blocks)
            fh.flush()      # before the turn passes on; os._exit flushes nothing
            if turn:
                os.write(turn[1], b"\0")

    # the CPUs this process may run on; os.sched_getaffinity exists on
    # Linux-like hosts only, and elsewhere one process writes every chunk
    if n_rows <= _EMIT_CHUNK_ROWS or len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2:
        return write_chunks(0, 1, None)
    fh.flush()      # the helper's copy of fh starts with an empty buffer
    to_helper, to_parent = os.pipe(), os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when a process with other threads forks, such as
            # numpy's OpenBLAS pool. The helper only runs numpy ufuncs and writes
            # bytes: it makes no BLAS call and takes no lock those threads hold.
            warnings.filterwarnings("ignore", ".* use of fork", DeprecationWarning)
            pid = os.fork()
    except OSError:
        # no helper (EAGAIN, ENOMEM): this process writes every chunk, same bytes
        for fd in (*to_helper, *to_parent):
            os.close(fd)
        return write_chunks(0, 1, None)
    # each process closes its copy of the write end of the pipe it reads, so
    # that it reads end of file once the other has ended; it keeps the read
    # end of the pipe it writes, so that passing the turn never fails
    reads, writes = (to_parent, to_helper) if pid else (to_helper, to_parent)
    os.close(reads[1])
    try:
        write_chunks(int(pid == 0), 2, (reads[0], writes[1]))
        if pid == 0:
            os._exit(0)
    finally:
        if pid == 0:
            os._exit(1)     # never return into the caller, whose exit would run twice
        for fd in (reads[0], *writes):
            os.close(fd)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise OSError(f"the helper process writing {fh.name} exited with status {status}")


@stages.timed("emit")
def emit_trace(trace, path, scenario, gnuplot_style):
    """Write a trace as CSV plus a sibling ``<path>.meta`` JSON file.

    CSV columns: delta_ghz, paired, accidental, total, n_index; 15
    significant digits, LF line endings, UTF-8. ``--gnuplot-style``
    switches to whitespace-separated columns with a '#' header. A trace
    draws no random numbers: the ``.meta`` ``seed`` and ``dwell_s`` are null,
    and so is its ``scenario_sha256`` when ``scenario`` is None.

    The CSV is written in place and the new ``.meta`` last, and each is
    truncated only if it is a regular file (through a link, if it is one):
    the CSV where its rows end, and an earlier ``.meta`` to 0 bytes before
    the first row, so only a ``.meta`` that is present and not empty marks
    a complete CSV. A device or FIFO ``.meta``, such as a link to
    ``/dev/null``, is not emptied, only opened and written at the end; a
    ``.meta`` that cannot be emptied or written ends the command with exit
    3 and one ``i/o error:`` line naming it.

    ``trace`` is a ``CorrelationTrace`` or a ``LazyTrace``; one row is
    written per sample of ``trace.delta_axis``. The CSV is opened first, so
    an unwritable path fails before any formatting, and without truncating
    it (``O_WRONLY | O_CREAT``, mode 0o666 as ``open`` gives), so that
    rewriting an existing CSV, as a repeated scan to one ``--out`` does,
    writes into its pages. Its tail is cut on success and on any error
    before it is raised, so a run that ends, well or not, leaves a fresh
    write's bytes. A killed process cuts nothing: an older file's tail may
    follow its rows, beside an empty ``.meta``. Nothing is fsynced, so
    neither file is durable across a system crash.
    Truncating first cost a 10^6-row ``scan`` over its own 68 MB CSV 40 to
    85 ms (ext4, 2-vCPU x86-64 Linux): freeing the old pages, filling new
    ones, and a block allocation at ``close``. The ``scan`` command took
    0.622 s with the truncating open and 0.570 s without it (medians of 20
    alternating pairs, lower in 20); writing a new path, where the kernel
    does the same work either way, read 0.560 and 0.580 s, then 0.559 and
    0.563 s (lower in 12 and 14 of 30). The rows are
    then taken ``_EMIT_CHUNK_ROWS`` at a time with ``trace.chunk``, which
    for a ``LazyTrace`` builds that slice of its ``UniformAxis`` and
    evaluates the closed form there only, so neither the axis nor any output
    column exists at full length and the memory of the call does not depend
    on the row count. Each chunk is formatted by ``textfmt.format_rows``
    into one ``textfmt.Canvas`` per process, whose word canvas every chunk
    reuses; the formatter works in place on a few numpy temporaries of one
    column of one chunk. Its rows are then laid out as text and written
    4,096 lines at a time (``textfmt.Canvas.blocks``), while this process
    holds the turn, so no more than one block of text exists at once. The
    rows have the same bytes as ``'%.15g' % v`` and ``'%d' % v`` per value.
    An ``OSError`` that names no file, such as a write error on a full
    disk, is raised naming the CSV, or the ``.meta`` when it hits that, as
    an error from ``open`` names its path.

    A trace of two or more chunks, on a host where ``os.sched_getaffinity``
    gives two or more CPUs, is written by two processes: after the header
    is flushed, the call forks one helper, and chunk k is evaluated and
    formatted by this process for even k and by the helper for odd k, so
    both format at once. A one-byte turn token passes between them over a
    pair of pipes, and a process writes its chunk, and flushes it, only
    while it holds the turn: this process holds it for chunk 0, and each
    passes it on after each of its chunks. Both write through the one file
    descriptor they share, whose offset places each chunk after the one
    before, so the bytes are those of one process writing every chunk. No
    text is kept beyond the block each process is writing, and no temporary
    file or thread is used. Every other trace, a 601-row ``figure`` among
    them, is written by this process alone, without a fork; so is a trace
    whose fork fails (EAGAIN or ENOMEM), after the pipes are closed.

    The helper prints nothing and always ends in ``os._exit``: status 0
    once its chunks are written, or once this process ended first, and 1 on
    an error of its own, so it never returns into the caller. This process
    closes its pipe ends and reaps the helper before it returns or raises,
    on success and on every error. When this process fails, for example on
    a full disk, the helper reads end of file at its next turn and exits,
    and the error is raised as it is. When the helper fails, this process
    reads end of file at its next turn, or finishes its own chunks, and
    raises ``OSError`` naming the helper's exit status (-9 for a helper
    killed by SIGKILL), which ``main`` reports as one ``i/o error:`` line
    with exit code 3. Either way the file is cut where the written rows
    end, with no byte of an older file after it (after the last whole
    chunk, when the failing process stopped between its writes), and its
    ``.meta``, if any, is empty. A helper whose parent was killed likewise
    stops at its next turn; nothing is cut then, and the ``.meta`` stays
    empty.

    Peak RSS of a ``scan`` of the fig4a preset, read with ``os.wait4`` (so
    the reaped helper's is included; 2-vCPU x86-64 Linux, Python 3.11,
    numpy 2.4, byte-compiled, medians of 12, 24 and 6 alternating
    subprocess pairs): 36.28 MB at 10^5 rows, 35.27 at 10^6 and 35.67 at
    10^7, where each chunk laid out as one piece of text read 38.31, 37.47
    and 38.39 MB. The ``.meta`` step's ``hashlib`` import (OpenSSL, about
    3.6 MB) now sets the peak, with the formatting 0.4 to 0.5 MB below it. The
    call is the ``emit`` stage of ``modlab.stages``; the chunks the helper
    evaluates are booked in the helper, not in this process's record.
    """
    import json   # imported here, like hashlib in scenario_hash: only .meta files need it

    sep = " " if gnuplot_style else ","
    header = sep.join(("delta_ghz", "paired", "accidental", "total", "n_index"))
    if gnuplot_style:
        header = "# " + header
    # opened without O_TRUNC, with the mode open gives a new file, so that a
    # rewrite goes into the old file's pages; its tail is cut off at the end.
    # Either file is truncated only if os.path.isfile, which stats a path
    # through its link, or a descriptor, shows a regular file
    meta_path = f"{path}.meta"
    with (_naming(path),
          open(path, "wb", opener=lambda p, _: os.open(p, os.O_WRONLY | os.O_CREAT, 0o666)) as fh):
        if os.path.isfile(meta_path):
            os.truncate(meta_path, 0)
        try:
            fh.write(header.encode("ascii") + b"\n")
            _write_rows(fh, trace, sep)
        finally:
            # at the offset the flushed rows reached, on an error too; closing
            # then writes what the buffer still holds there (a header with no
            # rows), so the bytes are those of a fresh write
            if os.path.isfile(fh.fileno()):
                os.truncate(fh.fileno(), os.lseek(fh.fileno(), 0, os.SEEK_CUR))
    meta = {
        "tool": "modlab",
        "tool_version": __version__,
        "schema": 1,
        "scenario_sha256": scenario_hash(scenario) if scenario is not None else None,
        "seed": None,
        "dwell_s": None,
        "generator": "pcg64",
        "rows": len(trace.delta_axis),
    }
    with _naming(meta_path), open(meta_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# input files
# ---------------------------------------------------------------------------

def _read_text(path):
    """The text of the file at ``path``, its line ends read as text mode
    reads them: CR LF and a lone CR become LF (universal newlines), so that
    splitting at LF numbers the lines as iterating over the open file would.

    Every file a command reads comes through here. Bytes that are not UTF-8
    raise ``ConfigurationError`` naming the file and the offset of the
    first bad byte. An ``OSError`` passes to the caller, which reports it
    with its own exit code.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _float_pairs(path, lines, first, sep, columns):
    """The two columns of finite floats in ``lines``, numbered from ``first``.

    Each line is stripped, and a blank one is skipped; any other must split
    at ``sep`` (None: at whitespace) into two finite floats. An error names
    ``path`` and the line; ``columns`` says what the two columns are.
    """
    values = []
    for lineno, raw in enumerate(lines, start=first):
        text = raw.strip()
        if not text:
            continue
        parts = text.split(sep)
        if len(parts) != 2:
            raise ConfigurationError(f"{path}:{lineno}: expected two {columns}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: non-numeric value") from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ConfigurationError(f"{path}:{lineno}: non-finite value")
        values += x, y
    return np.array(values, dtype=float).reshape(-1, 2).T.copy()


def read_phase_waveform(path) -> np.ndarray:
    """Load one period of a phase drive from a two-column text file.

    Columns: time as a fraction of the period, phase in radians. Rows must
    start at 0 and be uniformly spaced (j/N for N rows); '#' comments and
    blank lines are ignored. Returns the phase samples for
    ``modulation.coeffs_from_waveform``.
    """
    lines = (line.split("#", 1)[0] for line in _read_text(path).split("\n"))
    times, phases = _float_pairs(path, lines, 1, None, "columns (time_fraction phase_radians)")
    n = len(times)
    if n < 64:
        raise ConfigurationError("waveform file needs at least 64 samples per period")
    if np.max(np.abs(times - np.arange(n) / n)) > 1e-9:
        raise ConfigurationError(
            "waveform times must be uniform fractions of the period: 0, 1/N, ..., (N-1)/N")
    return phases


def _read_counts_csv(path):
    header, *rows = _read_text(path).split("\n")
    header = header.strip()
    if header != "delta_ghz,counts":
        raise ConfigurationError(
            f"fit data file must start with 'delta_ghz,counts' (got '{header}')")
    return _float_pairs(path, rows, 2, ",", "CSV columns")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _require(value, message):
    if value is None:
        raise ConfigurationError(message)
    return value


def _sideband_model(scenario, axis):
    """The closed-form model of ``scenario``, after one ``warning:`` line on
    stderr when ``axis`` runs past the composed modulator support."""
    model = scenario.model
    if model.clips(axis):
        print(f"warning: {CLIPPING_MESSAGE}", file=sys.stderr)
    return model


def _write_trace(run, scenario, axis, out):
    """Write the closed form of ``scenario`` on ``axis`` to ``out``.

    The model is built and clipping reported before the file is opened;
    ``emit_trace`` then evaluates the rows chunk by chunk.
    """
    model = _sideband_model(scenario, axis)
    emit_trace(LazyTrace(model, axis), out, scenario=scenario,
               gnuplot_style=run.gnuplot_style)
    return len(axis)


def _cmd_scan(run, scenario):
    scenario = _require(scenario, "scan needs a [scenario] section")
    out = _require(run.out, "scan needs an output path (--out or [run] out)")
    n_rows = _write_trace(run, scenario, run.delta_axis(), out)
    print(f"wrote {n_rows} rows to {out}")
    return 0


def _cmd_figure(run, scenario):
    case = _require(run.case, "figure needs a [figure] section with a case")
    out = _require(run.out, "figure needs an output path (--out or [run] out)")
    scenario = figure_preset(case)
    if run.delta_min is not None:
        axis = run.delta_axis()
    else:
        axis = UniformAxis(-150.0, 0.5, 601)
    n_rows = _write_trace(run, scenario, axis, out)
    print(f"wrote {case} trace ({n_rows} rows) to {out}")
    return 0


def _write_report(run, lines):
    """Print the report ``lines`` and, with an output path, write them there too."""
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if run.out:
        with _naming(run.out), open(run.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report)


def _cmd_fit(run, scenario):
    scenario = _require(scenario, "fit needs a [scenario] section")
    if run.data is not None:
        delta, counts = _read_counts_csv(run.data)
        source = run.data
    else:
        # the fit evaluates the model on the whole axis at each offset
        delta = np.asarray(run.delta_axis())
        model = _sideband_model(scenario, delta)
        counts = synthesize_counts(model.evaluate(delta), dwell=run.dwell, seed=run.seed)
        source = f"synthetic (seed={run.seed}, dwell={run.dwell})"
    result = fit_scale(delta, counts, scenario, dwell=run.dwell)
    _write_report(run, [
        f"data = {source}",
        f"alpha1_sq = {result.alpha1_sq!r}",
        f"alpha2_sq = {result.alpha2_sq!r}",
        f"scale_product = {result.scale_product!r}",
        f"delta_offset_ghz = {result.delta_offset!r}",
        f"residual_rms = {result.residual_rms!r}",
        f"iterations = {result.iterations}",
    ])
    return 0


def _cmd_validate(run, scenario):
    code, results = run_validate(scenario)
    lines = [f"{status} {name} {detail}" for name, status, detail in results]
    n_fail = sum(1 for _, status, _ in results if status == "FAIL")
    lines.append(f"{'FAIL' if n_fail else 'OK'} {len(results)} checks, {n_fail} failures")
    _write_report(run, lines)
    return code


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``ConfigurationError``, so
    that ``main`` reports each as one ``config error:`` line with exit 2."""

    def error(self, message):
        raise ConfigurationError(message)


# the flags that take a value
_VALUE_FLAGS = ("--config", "--out", "--seed", "--dwell")


def _join_dash_values(argv):
    """``argv`` with each value flag joined to a following argument that
    starts with a single dash, as ``--flag=value``: argparse takes such an
    argument (``-1e5``, ``-inf``) for an option, not for the flag's value."""
    joined = []
    for arg in argv:
        if joined and joined[-1] in _VALUE_FLAGS and arg[:1] == "-" and arg[:2] != "--":
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _argument_parser():
    parser = _ArgumentParser(
        prog="modlab", allow_abbrev=False,
        description="Frequency-domain correlation scans, figure presets, fits "
                    "and self-validation for modulated photon pairs.")
    parser.add_argument("command", choices=("scan", "figure", "fit", "validate"))
    parser.add_argument("--config", metavar="FILE", help="config file path")
    parser.add_argument("--out", metavar="FILE", help="output file path")
    # the [run] keys seed and dwell, read by _parse_scalar under the same rules
    parser.add_argument("--seed", metavar="N", help="random seed override")
    parser.add_argument("--dwell", metavar="S", help="dwell time override (s)")
    parser.add_argument("--gnuplot-style", action="store_true",
                        help="whitespace-separated output with a '#' header")
    return parser


def _run_config(args):
    """The run settings and scenario of the parsed arguments: the config
    file, if any, then the command-line overrides."""
    if args.config is not None:
        try:
            text = _read_text(args.config)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file: {exc}") from exc
        run, scenario = parse_config(text, command=args.command)
    else:
        run, scenario = RunConfig(), None
    if args.out is not None:
        run.out = args.out
    for key in ("seed", "dwell"):
        raw = getattr(args, key)
        if raw is not None:
            try:
                setattr(run, key, _parse_scalar(key, *_SECTIONS["run"][key], raw, None))
            except ConfigParseError as exc:
                raise ConfigurationError(f"--{key}: {exc}") from exc
    run.gnuplot_style = args.gnuplot_style
    return run, scenario


def main(argv=None) -> int:
    """Run one command; ``stages.seconds()`` then holds its stage times."""
    stages.reset()
    try:
        with stages.stage("parse"):
            args = _argument_parser().parse_args(
                _join_dash_values(sys.argv[1:] if argv is None else argv))
            run, scenario = _run_config(args)
        handler = {"scan": _cmd_scan, "figure": _cmd_figure,
                   "fit": _cmd_fit, "validate": _cmd_validate}[args.command]
        return handler(run, scenario)
    except (ConfigurationError, DomainError, ResolutionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ModlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def process_main():
    """Run one command as a whole process: ``main()``, then ``gc.freeze()``
    so that the interpreter's closing collections skip every surviving
    object, then exit with the command's code."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    process_main()
