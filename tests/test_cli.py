"""Config parsing, output emission, validation command and exit codes."""

import functools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from modlab import (ConfigParseError, ExperimentScenario, SidebandModel, figure_preset,
                    regime_report)
from modlab import cli, modulation, textfmt
from modlab.cli import (MAX_SCAN_ROWS, RunConfig, emit_trace, main, parse_config,
                        run_validate, scenario_to_config)
from modlab.correlator import CorrelationTrace, coincidence_trace

SRC = Path(__file__).resolve().parent.parent / "src"
CHUNK_ROWS = 1 << 16

MINIMAL = """\
schema = 1

[scan]
delta_min = -150 GHz
delta_max = 150 GHz
delta_step = 0.5 GHz

[scenario]
preset = fig4b
"""

EXPLICIT = """\
schema = 1
[scenario]
pump_frequency = 563519.6578947367 GHz
modulation_frequency = 30 GHz
gate = 1.25 ns
dispersion = 210 GHz/mm
fwhm_convention = intensity
b0 = 73.59557570423591
mod1_depth = 1.5 rad
mod2_depth = 1.5 rad
mod2_phase = 3.141592653589793 rad
filter1_fwhm = 8.5 GHz
filter1_alpha_sq = 0.012
filter2_fwhm = 8.5 GHz
filter2_alpha_sq = 0.000559
"""


def test_minimal_preset_passthrough():
    run, scenario = parse_config(MINIMAL, command="scan")
    assert scenario == figure_preset("fig4b")
    axis = run.delta_axis()
    assert len(axis) == 601
    assert axis[0] == -150.0 and axis[-1] == 150.0


def test_explicit_config_reproduces_reference_regime():
    _, scenario = parse_config(EXPLICIT, command="scan")
    report = regime_report(scenario)
    assert round(report.mod_to_filter, 2) == 3.53
    assert round(report.filter_gate, 1) == 10.6


def test_preset_with_override():
    text = MINIMAL + "filter1_fwhm = 30 GHz\nfilter2_fwhm = 30 GHz\n"
    _, scenario = parse_config(text, command="scan")
    assert scenario.filter1.fwhm == 30.0
    assert not regime_report(scenario).valid


@pytest.mark.parametrize("line,fragment", [
    ("delta_step = 0 GHz", "delta_step"),
    ("delta_step = -1 GHz", "delta_step"),
])
def test_zero_step_rejected(line, fragment):
    text = MINIMAL.replace("delta_step = 0.5 GHz", line)
    with pytest.raises(ConfigParseError, match=fragment):
        parse_config(text, command="scan")


def test_unknown_key_reports_line_number():
    text = MINIMAL + "delta_stepp = 0.5 GHz\n"
    with pytest.raises(ConfigParseError) as info:
        parse_config(text, command="scan")
    assert "delta_stepp" in str(info.value)
    assert info.value.line == len(MINIMAL.splitlines()) + 1


def test_unknown_section_rejected():
    with pytest.raises(ConfigParseError, match="unknown section"):
        parse_config("schema = 1\n[scansion]\n", command="scan")


def test_unit_mismatch_rejected():
    text = EXPLICIT.replace("gate = 1.25 ns", "gate = 1.25 GHz")
    with pytest.raises(ConfigParseError, match="unit mismatch"):
        parse_config(text, command="scan")


def test_dimensionless_key_rejects_unit():
    text = EXPLICIT.replace("b0 = 73.59557570423591", "b0 = 73.59 GHz")
    with pytest.raises(ConfigParseError, match="dimensionless"):
        parse_config(text, command="scan")


def test_duplicate_key_rejected():
    text = MINIMAL + "preset = fig3a\n"
    with pytest.raises(ConfigParseError, match="duplicate"):
        parse_config(text, command="scan")


def test_schema_required_and_versioned():
    with pytest.raises(ConfigParseError, match="schema"):
        parse_config("[scenario]\npreset = fig3a\n", command="scan")
    with pytest.raises(ConfigParseError, match="schema"):
        parse_config("schema = 2\n[scenario]\npreset = fig3a\n", command="scan")


def test_key_before_section_rejected():
    with pytest.raises(ConfigParseError, match="before any section"):
        parse_config("schema = 1\npreset = fig3a\n", command="scan")


def test_missing_required_explicit_keys():
    text = EXPLICIT.replace("b0 = 73.59557570423591\n", "")
    with pytest.raises(ConfigParseError, match="b0"):
        parse_config(text, command="scan")


def test_enum_value_checked():
    text = MINIMAL.replace("preset = fig4b", "preset = fig9z")
    with pytest.raises(ConfigParseError, match="fig9z"):
        parse_config(text, command="scan")


def test_waveform_and_depth_conflict(tmp_path):
    wave = tmp_path / "w.txt"
    wave.write_text("\n".join(f"{j / 64} 0.0" for j in range(64)) + "\n")
    text = MINIMAL + f"mod1_depth = 1.0 rad\nmod1_waveform = {wave}\n"
    with pytest.raises(ConfigParseError, match="not both"):
        parse_config(text, command="scan")


def test_waveform_modulator_from_config(tmp_path):
    wave = tmp_path / "w.txt"
    n = 256
    wave.write_text("\n".join(
        f"{j / n:.10f} {1.5 * math.cos(2 * math.pi * j / n):.10f}" for j in range(n)) + "\n")
    text = MINIMAL + f"mod1_waveform = {wave}\n"
    _, scenario = parse_config(text, command="scan")
    ref = figure_preset("fig4b")
    assert abs(scenario.mod1.coefficient(1) - ref.mod1.coefficient(1)) < 1e-9


def test_scenario_roundtrip_through_config():
    for case in ("fig3a", "fig3b", "fig4a", "fig4b"):
        scn = figure_preset(case)
        text = scenario_to_config(scn)
        _, back = parse_config(text, command="validate")
        assert back == scn
        assert scenario_to_config(back) == text


def test_emit_trace_csv(tmp_path):
    scn = figure_preset("fig3a")
    axis = -150.0 + 0.5 * np.arange(601)
    trace = coincidence_trace(scn, axis)
    out = tmp_path / "t.csv"
    emit_trace(trace, out, scenario=scn)
    lines = out.read_text().splitlines()
    assert lines[0] == "delta_ghz,paired,accidental,total,n_index"
    assert len(lines) == 602
    meta = json.loads((tmp_path / "t.csv.meta").read_text())
    assert meta["seed"] is None
    assert meta["generator"] == "pcg64"
    assert len(meta["scenario_sha256"]) == 64


def test_emit_trace_deterministic_bytes(tmp_path):
    scn = figure_preset("fig3b")
    axis = np.arange(-60.0, 60.5, 0.5)
    trace = coincidence_trace(scn, axis)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_trace(trace, a, scenario=scn)
    emit_trace(coincidence_trace(scn, axis), b, scenario=scn)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.meta").read_bytes() == (tmp_path / "b.csv.meta").read_bytes()


def test_emit_empty_trace_header_only(tmp_path):
    scn = figure_preset("fig3a")
    trace = coincidence_trace(scn, np.array([]))
    out = tmp_path / "empty.csv"
    emit_trace(trace, out)
    assert out.read_text() == "delta_ghz,paired,accidental,total,n_index\n"


def test_emit_gnuplot_style(tmp_path):
    scn = figure_preset("fig3a")
    trace = coincidence_trace(scn, np.arange(-5.0, 5.5, 0.5))
    out = tmp_path / "t.dat"
    emit_trace(trace, out, gnuplot_style=True)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# delta_ghz")
    assert "," not in lines[1]


def _value_texts(trace):
    """The per-value ``%.15g`` and ``%d`` texts of a trace's five columns."""
    # .tolist() first: f-strings on Python floats and ints give the same
    # bytes as on numpy scalars, and much faster
    texts = [[f"{v:.15g}" for v in np.asarray(c).tolist()]
             for c in (trace.delta_axis, trace.paired, trace.accidental, trace.total)]
    texts.append([str(int(n)) for n in np.asarray(trace.n_index).tolist()])
    return texts


def _reference_bytes(texts, gnuplot_style=False):
    """The former row-at-a-time CSV writer, kept as the byte-level reference:
    the header and the rows of ``_value_texts`` joined in one style."""
    sep = " " if gnuplot_style else ","
    header = sep.join(("delta_ghz", "paired", "accidental", "total", "n_index"))
    if gnuplot_style:
        header = "# " + header
    rows = [header, *map(sep.join, zip(*texts))]
    return ("\n".join(rows) + "\n").encode("utf-8")


def _fig4a_trace(lo, hi, n_rows):
    axis = lo + ((hi - lo) / (n_rows - 1)) * np.arange(n_rows)
    return coincidence_trace(figure_preset("fig4a"), axis)


def _signed_zero_trace(n_rows):
    """A two-chunk trace whose paired column alternates 0.0 and -0.0."""
    paired = np.zeros(n_rows)
    paired[1::2] = -0.0
    return CorrelationTrace(delta_axis=np.arange(n_rows, dtype=float), paired=paired,
                            accidental=np.full(n_rows, -0.0), total=paired.copy(),
                            n_index=np.zeros(n_rows, dtype=np.int64))


@functools.cache
def _across_chunks_cases():
    """Name -> (trace, its ``_value_texts``), built once for both styles."""
    cases = {
        "single chunk": _fig4a_trace(-150.0, 150.0, 601),
        "three-row last chunk": _fig4a_trace(-150.0, 150.0, 2 * CHUNK_ROWS + 3),
        # every column of the one-row last chunk is constant
        "one-row last chunk": _fig4a_trace(-150.0, 150.0, 2 * CHUNK_ROWS + 1),
        # one sideband window: n_index is constant in every chunk
        "constant n_index": _fig4a_trace(-10.0, 10.0, CHUNK_ROWS + 2),
        "0.0 and -0.0 in one chunk": _signed_zero_trace(CHUNK_ROWS + 1),
        # a step wider than the 30 GHz drive: every row in its own window
        "distinct n_index": SidebandModel(figure_preset("fig4a")).evaluate(
            37.0 * (np.arange(CHUNK_ROWS + 5) - CHUNK_ROWS // 2)),
    }
    return {name: (trace, _value_texts(trace)) for name, trace in cases.items()}


@pytest.mark.parametrize("gnuplot_style", [False, True])
def test_emit_trace_matches_row_reference_across_chunks(tmp_path, gnuplot_style):
    # whole emit chunks, so that the case names below hold
    assert CHUNK_ROWS % cli._EMIT_CHUNK_ROWS == 0
    cases = _across_chunks_cases()
    assert set(cases["constant n_index"][0].n_index.tolist()) == {0}
    distinct = cases["distinct n_index"][0].n_index
    assert len(set(distinct.tolist())) == len(distinct)
    out = tmp_path / "out.csv"
    for name, (trace, texts) in cases.items():
        ref = _reference_bytes(texts, gnuplot_style)
        emit_trace(trace, out, gnuplot_style=gnuplot_style)
        assert out.read_bytes() == ref, name
    # emitting the last multi-chunk trace again gives the same bytes
    emit_trace(trace, out, gnuplot_style=gnuplot_style)
    assert out.read_bytes() == ref


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_emit_trace_write_error_raises():
    trace = _fig4a_trace(-150.0, 150.0, 4 * CHUNK_ROWS)
    with pytest.raises(OSError):
        emit_trace(trace, "/dev/full")


@pytest.mark.parametrize("gnuplot_style", [False, True])
def test_emit_trace_matches_row_reference_edge_values(tmp_path, gnuplot_style):
    trace = CorrelationTrace(
        delta_axis=np.array([-0.0, 5e-324, 1e22, -1.0 / 3.0]),
        paired=np.array([0.0, -0.0, 1e-300, 2.0 / 3.0]),
        accidental=np.array([1e22, 5e-324, 0.1, 123456789012345678.0]),
        total=np.array([-1e22, 1.0, -5e-324, 1e-5]),
        n_index=np.array([-3, -1, 0, 7]))
    out = tmp_path / "out.csv"
    emit_trace(trace, out, gnuplot_style=gnuplot_style)
    assert out.read_bytes() == _reference_bytes(_value_texts(trace), gnuplot_style)
    assert out.read_text().splitlines()[1].split(" " if gnuplot_style else ",")[0] == "-0"


def test_run_validate_all_pass():
    code, results = run_validate()
    assert code == 0
    assert all(status in ("PASS", "SKIP") for _, status, _ in results)
    names = [name for name, _, _ in results]
    assert "bessel_addition_theorem" in names
    assert "tier_agreement" in names


def test_run_validate_skips_out_of_regime():
    # validate reads no [scan] section, so the scenario comes without one
    text = ("schema = 1\n[scenario]\npreset = fig4b\n"
            "filter1_fwhm = 30 GHz\nfilter2_fwhm = 30 GHz\n")
    _, scenario = parse_config(text, command="validate")
    code, results = run_validate(scenario)
    assert code == 0
    tier = [r for r in results if r[0] == "tier_agreement"][0]
    assert tier[1] == "SKIP"
    assert "out-of-regime" in tier[2]


def test_run_validate_flags_corrupted_bessel(monkeypatch):
    real = modulation.bessel_j_sequence

    def corrupted(nmax, x):
        return real(nmax, x) * (1.0 + 1e-6)

    monkeypatch.setattr(modulation, "bessel_j_sequence", corrupted)
    code, results = run_validate()
    assert code == 1
    failed = {name for name, status, _ in results if status == "FAIL"}
    assert "bessel_addition_theorem" in failed


def test_main_scan_and_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(MINIMAL)
    out = tmp_path / "trace.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists()
    assert len(out.read_text().splitlines()) == 602

    # missing output path -> config error
    assert main(["scan", "--config", str(cfg)]) == 2
    # missing scenario -> config error
    assert main(["scan"]) == 2
    # unreadable config -> config error
    assert main(["scan", "--config", str(tmp_path / "nope.cfg")]) == 2
    # unwritable output -> I/O error
    assert main(["scan", "--config", str(cfg),
                 "--out", str(tmp_path / "no_dir" / "x.csv")]) == 3
    # parse error with line number -> config error
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL + "delta_stepp = 1\n")
    assert main(["scan", "--config", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line" in err


OVERFLOWING_SCALES = "filter1_alpha_sq = 1e300\nfilter2_alpha_sq = 1e300\n"
FIG4A_SCAN = MINIMAL.replace("preset = fig4b", "preset = fig4a")
FIG4A_VALIDATE = "schema = 1\n[scenario]\npreset = fig4a\n"
# |delta|/w_m reaches 3.3e19, past the int64 range of the sideband index
FIG4A_BEYOND_INT64 = (FIG4A_SCAN.replace("delta_min = -150 GHz", "delta_min = -1e21 GHz")
                      .replace("delta_max = 150 GHz", "delta_max = 1e21 GHz")
                      .replace("delta_step = 0.5 GHz", "delta_step = 1e19 GHz"))


# delta / w_m overflows to inf before the sideband index is checked
OVERFLOWING_QUOTIENT = (MINIMAL.replace("delta_min = -150 GHz", "delta_min = 1e307 GHz")
                        .replace("delta_max = 150 GHz", "delta_max = 1.1e307 GHz")
                        .replace("delta_step = 0.5 GHz", "delta_step = 1e306 GHz")
                        + "modulation_frequency = 0.001 GHz\n")

# 51 rows from 1e16 GHz at the float spacing there, 2 GHz, where the 15
# digits of delta_ghz resolve 100 GHz
FINE_STEP_AT_1E16 = (MINIMAL.replace("delta_min = -150 GHz", "delta_min = 1e16 GHz")
                     .replace("delta_max = 150 GHz", "delta_max = 1.00000000000001e16 GHz")
                     .replace("delta_step = 0.5 GHz", "delta_step = 2 GHz"))

# the axis spans 2e308 GHz, which overflows to inf
OVERFLOWING_AXIS = (MINIMAL.replace("delta_min = -150 GHz", "delta_min = -1e308 GHz")
                    .replace("delta_max = 150 GHz", "delta_max = 1e308 GHz")
                    .replace("delta_step = 0.5 GHz", "delta_step = 1e300 GHz"))


def _fit_data(bad_line):
    """A 12-row fit-data CSV whose third data row is ``bad_line``."""
    rows = [f"{d:.1f},{100 + d:.0f}" for d in np.arange(-6.0, 6.0)]
    rows[2] = bad_line
    return "delta_ghz,counts\n" + "\n".join(rows) + "\n"


def _waveform(bad_line):
    """A 64-row phase waveform file whose fourth row is ``bad_line``."""
    rows = [f"{j / 64} 0.0" for j in range(64)]
    rows[3] = bad_line
    return "\n".join(rows) + "\n"


# (command, config text, extra argv, text of the fit-data or waveform file named
# {data} in the config, or None, stderr fragments)
@pytest.mark.parametrize("command, text, argv, data, fragments", [
    pytest.param("scan", MINIMAL + "filter1_fwhm = nan GHz\n", [], None,
                 ("filter1_fwhm", "line"), id="filter1_fwhm = nan GHz"),
    pytest.param("scan", MINIMAL + "filter2_fwhm = inf GHz\n", [], None,
                 ("filter2_fwhm", "line"), id="filter2_fwhm = inf GHz"),
    pytest.param("scan", MINIMAL + "filter1_fwhm = 1e200 GHz\n", [], None,
                 ("filter FWHM", "1e+200", "too large"), id="filter1_fwhm = 1e200 GHz"),
    pytest.param("scan", MINIMAL + "filter2_fwhm = 1e160 GHz\n", [], None,
                 ("filter FWHM", "1e+160", "too large"), id="filter2_fwhm = 1e160 GHz"),
    pytest.param("scan", MINIMAL.replace("delta_step = 0.5 GHz", "delta_step = nan GHz"),
                 [], None, ("delta_step", "line"), id="delta_step = nan GHz"),
    *[pytest.param(command, text, [], None, ("[scan] section is missing key 'delta_min'",),
                   id=f"{command} [scan] with delta_max alone")
      for command, text in (
          ("scan", MINIMAL.replace("delta_min = -150 GHz\n", "")
                          .replace("delta_step = 0.5 GHz\n", "")),
          ("figure", "schema = 1\n[scan]\ndelta_max = 100 GHz\n[figure]\ncase = fig4b\n"))],
    # an empty section header is read as the section, not as its absence
    *[pytest.param(command, text, [], None,
                   (f"line {line}: [scan] section is missing key 'delta_min'",),
                   id=f"{command} empty [scan]")
      for command, text, line in (
          ("scan", "schema = 1\n\n[scan]\n\n[scenario]\npreset = fig4b\n", 3),
          ("figure", "schema = 1\n[scan]\n[figure]\ncase = fig4b\n", 2))],
    pytest.param("figure", "schema = 1\n[figure]\n", [], None,
                 ("line 2: [figure] section is missing key 'case'",), id="figure empty [figure]"),
    pytest.param("scan", MINIMAL.replace("preset = fig4b\n", ""), [], None,
                 ("explicit scenario is missing required keys", "pump_frequency"),
                 id="scan empty [scenario]"),
    pytest.param("scan", MINIMAL + OVERFLOWING_SCALES, [], None,
                 ("transmission scales", "1e+300"), id="scan alpha_sq = 1e300"),
    pytest.param("validate", "schema = 1\n[scenario]\npreset = fig4b\n" + OVERFLOWING_SCALES,
                 [], None, ("transmission scales", "1e+300"), id="validate alpha_sq = 1e300"),
    # delta_ghz resolves 100 GHz at 1e16 GHz: a finer step repeats printed deltas
    *[pytest.param("scan", FINE_STEP_AT_1E16.replace("delta_step = 2 GHz",
                                                     f"delta_step = {step} GHz"), [], None,
                   ("delta_step", f"{float(step):g} GHz", "100 GHz resolution"),
                   id=f"delta_step = {step} GHz at 1e16 GHz")
      for step in ("0.5", "1.5")],
    pytest.param("scan", MINIMAL + "filter1_alpha_sq = -1\n", [], None,
                 ("filter1_alpha_sq", "nonnegative", "line 10"), id="filter1_alpha_sq = -1"),
    # the flat-band singles integral itself overflows
    *[pytest.param(command, text + f"filter1_alpha_sq = {value}\n", [], None,
                   ("singles rate overflows", f"alpha^2 = {float(value):g}"),
                   id=f"{command} filter1_alpha_sq = {value}")
      for command, text in (("scan", FIG4A_SCAN), ("validate", FIG4A_VALIDATE))
      for value in ("1e307", "1e308")],
    pytest.param("scan", FIG4A_BEYOND_INT64, [], None, ("sideband indices", "1e+21"),
                 id="scan delta = +-1e21 GHz"),
    *[pytest.param(command, OVERFLOWING_QUOTIENT, [], None,
                   ("sideband indices", "1e+307", "0.001 GHz"),
                   id=f"{command} delta = 1e307 GHz at 0.001 GHz")
      for command in ("scan", "fit")],
    # each overflow names its cause
    *[pytest.param(command, MINIMAL + "b0 = 1e100\n", [], None,
                   ("coincidence rates overflow", "|B0| = 1e+100"), id=f"{command} b0 = 1e100")
      for command in ("scan", "fit")],
    pytest.param("scan", MINIMAL + "gate = 1e308 ns\n", [], None,
                 ("coincidence rates overflow", "gate 1e+308 ns"), id="scan gate = 1e308 ns"),
    # |B0| just below that overflow: the Poisson mean of the synthetic fit is too large
    pytest.param("fit", MINIMAL + "b0 = 1.1e77\n", [], None,
                 ("peak coincidence rate", "dwell of 20.0 s"), id="fit b0 = 1.1e77"),
    # the center frequency is 2.1e302 GHz, then inf: either swallows the passband
    *[pytest.param("scan", MINIMAL + f"filter1_slit = {slit} mm\n", [], None,
                   (f"filter slit {float(slit)!r} mm", "off scale"),
                   id=f"filter1_slit = {slit} mm")
      for slit in ("1e300", "1e307")],
    *[pytest.param(command, OVERFLOWING_AXIS, [], None,
                   ("delta axis", "-1e+308", "1e+300", "no finite row count"),
                   id=f"{command} delta = +-1e308 GHz")
      for command in ("scan", "fit")],
    pytest.param("scan", MINIMAL + "mod1_waveform = {data}\n", [], _waveform("0.046875 nan"),
                 ("wave.txt:4", "non-finite"), id="nan phase in waveform"),
    pytest.param("scan", MINIMAL + "mod1_waveform = {data}\n", [], _waveform("nan 0.0"),
                 ("wave.txt:4", "non-finite"), id="nan time in waveform"),
    pytest.param("scan", MINIMAL + "mod1_depth = 200 rad\n", [], None,
                 ("modulation depth 200 rad", "too large"), id="mod1_depth = 200 rad"),
    pytest.param("scan", MINIMAL + "mod2_depth = -1e9 rad\n", [], None,
                 ("modulation depth -1e+09 rad", "at most 157 rad"),
                 id="mod2_depth = -1e9 rad"),
    pytest.param("fit", MINIMAL, ["--dwell", "nan"], None, ("--dwell",), id="--dwell nan"),
    pytest.param("fit", MINIMAL, ["--dwell", "inf"], None, ("--dwell",), id="--dwell inf"),
    pytest.param("fit", MINIMAL, ["--seed", "-1"], None, ("--seed",), id="--seed -1"),
    pytest.param("fit", MINIMAL, ["--dwell", "1e308"], None, ("dwell", "1e+308"),
                 id="--dwell 1e308"),
    pytest.param("fit", MINIMAL + "[run]\ndwell = 1e300 s\n", [], None, ("dwell", "1e+300"),
                 id="dwell = 1e300 s"),
    pytest.param("fit", MINIMAL + "[run]\nseed = -1\n", [], None, ("seed", "line 11"),
                 id="seed = -1"),
    pytest.param("fit", MINIMAL + "[fit]\ndata = {data}\n", [], _fit_data("-4.0,nan"),
                 ("counts.csv:4", "non-finite"), id="nan count in fit data"),
    pytest.param("fit", MINIMAL + "[fit]\ndata = {data}\n", [], _fit_data("inf,96"),
                 ("counts.csv:4", "non-finite"), id="inf delta in fit data"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_main_rejects_non_finite_values(tmp_path, capsys, command, text, argv, data,
                                        fragments):
    if data is not None:
        path = tmp_path / ("counts.csv" if command == "fit" else "wave.txt")
        path.write_text(data)
        text = text.format(data=path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "x.out"
    assert main([command, "--config", str(cfg), "--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    for fragment in fragments:
        assert fragment in err
    # no message names a setting that no config key or flag sets
    assert "tail_tol" not in err
    assert not out.exists()


def test_main_scan_rejects_a_step_at_the_float_spacing(tmp_path, capsys):
    cfg = tmp_path / "fine.cfg"
    cfg.write_text(FINE_STEP_AT_1E16)
    out = tmp_path / "fine.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: delta_step 2 GHz is below twice the 100 GHz resolution of the "
        "15-digit delta_ghz column at 1e+16 GHz; adjacent rows would print the same delta"]
    assert not out.exists()
    # its 51 rows are distinct floats, but they print as two texts
    axis = 1e16 + 2.0 * np.arange(51)
    assert len(np.unique(axis)) == 51
    assert len({"%.15g" % value for value in axis}) == 2


# (delta_min, delta_max, delta_step) with the step at exactly two units of the
# last printed digit at the axis's larger end: 100 GHz at 1e16 GHz, 0.01 GHz
# at 4.4e12 GHz
@pytest.mark.parametrize("lo, hi, step", [
    ("1e16", "1.000000000001e16", "200"),
    ("-4.4e12", "-4399999999999", "0.02"),
])
def test_main_scan_accepts_a_step_of_two_printed_units(tmp_path, capsys, lo, hi, step):
    text = (MINIMAL.replace("delta_min = -150 GHz", f"delta_min = {lo} GHz")
            .replace("delta_max = 150 GHz", f"delta_max = {hi} GHz")
            .replace("delta_step = 0.5 GHz", f"delta_step = {step} GHz"))
    cfg = tmp_path / "two_units.cfg"
    cfg.write_text(text)
    out = tmp_path / "two_units.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    # the only message is the clipping warning: the axis is past every sideband
    assert capsys.readouterr().err.startswith("warning: delta samples beyond")
    printed = [row.split(",")[0] for row in out.read_text().splitlines()[1:]]
    assert len(printed) == 51
    assert len(set(printed)) == 51


def test_main_rejects_oversized_delta_axis(tmp_path, capsys):
    text = MINIMAL.replace("delta_step = 0.5 GHz", "delta_step = 1e-9 GHz")
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text)
    out = tmp_path / "x.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert str(MAX_SCAN_ROWS) in err
    assert not out.exists()
    # one row past the cap is refused before the axis is built
    run = RunConfig(delta_min=0.0, delta_max=float(MAX_SCAN_ROWS), delta_step=1.0)
    from modlab import ConfigurationError
    with pytest.raises(ConfigurationError, match="rows"):
        run.delta_axis()


MULTI_CHUNK = MINIMAL.replace("delta_step = 0.5 GHz", "delta_step = 0.002 GHz")


def test_main_scan_multi_chunk_subprocess(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(MULTI_CHUNK)
    out = tmp_path / "sub.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "modlab.cli", "scan", "--config", str(cfg), "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    run, scenario = parse_config(MULTI_CHUNK, command="scan")
    trace = coincidence_trace(scenario, run.delta_axis())
    n_rows = len(trace.delta_axis)
    assert n_rows > 2 * CHUNK_ROWS
    assert proc.stdout.splitlines() == [f"wrote {n_rows} rows to {out}"]
    ref = tmp_path / "ref.csv"
    emit_trace(trace, ref, scenario=scenario)
    assert out.read_bytes() == ref.read_bytes()
    assert Path(f"{out}.meta").read_bytes() == Path(f"{ref}.meta").read_bytes()


def test_main_unwritable_out_exits_3(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(MULTI_CHUNK)
    out = tmp_path / "no_dir" / "x.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command, text", [
    ("scan", MINIMAL),
    ("figure", "schema = 1\n[figure]\ncase = fig3b\n"),
])
def test_main_checks_out_path_before_building_trace(tmp_path, capsys, monkeypatch,
                                                    command, text):
    def no_trace(*args, **kwargs):
        raise AssertionError("trace built before the output path was checked")

    # what scan and figure call to build and to evaluate the trace
    monkeypatch.setattr(ExperimentScenario, "model", property(no_trace))
    monkeypatch.setattr(SidebandModel, "evaluate", no_trace)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"config error: {command} needs an output path (--out or [run] out)"]


# fig3b's sidebands end at |delta| = 435 GHz; this axis runs past both ends
CLIPPED_BOTH_ENDS = """\
schema = 1

[scan]
delta_min = -491.55 GHz
delta_max = 491.55 GHz
delta_step = 0.03 GHz

[scenario]
preset = fig3b
"""
CLIPPING_WARNING = ("warning: delta samples beyond the modulator truncation support; "
                    "paired term set to zero")


@pytest.mark.parametrize("gnuplot_style", [False, True])
def test_main_scan_streams_the_bytes_of_the_full_trace(tmp_path, gnuplot_style):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(CLIPPED_BOTH_ENDS)
    run, scenario = parse_config(CLIPPED_BOTH_ENDS, command="scan")
    trace = coincidence_trace(scenario, run.delta_axis())
    assert len(trace.delta_axis) == 2 * cli._EMIT_CHUNK_ROWS + 3
    outside = np.abs(trace.n_index) > SidebandModel(scenario).n_max
    assert outside[0] and outside[-1] and not outside.all()
    ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
    emit_trace(trace, ref, scenario=scenario, gnuplot_style=gnuplot_style)
    style = ["--gnuplot-style"] if gnuplot_style else []
    assert main(["scan", "--config", str(cfg), "--out", str(out), *style]) == 0
    assert out.read_bytes() == ref.read_bytes()
    assert Path(f"{out}.meta").read_bytes() == Path(f"{ref}.meta").read_bytes()


def test_main_scan_evaluates_and_formats_chunk_by_chunk(tmp_path, monkeypatch):
    evaluated, formatted = [], []
    evaluate, format_rows = SidebandModel.evaluate, textfmt.format_rows

    def evaluate_spy(self, delta):
        evaluated.append(len(delta))
        return evaluate(self, delta)

    def format_spy(sep, columns, *args):
        formatted.append({len(c) for c in columns})
        return format_rows(sep, columns, *args)

    monkeypatch.setattr(SidebandModel, "evaluate", evaluate_spy)
    monkeypatch.setattr(textfmt, "format_rows", format_spy)
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(CLIPPED_BOTH_ENDS)
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 0
    chunk = cli._EMIT_CHUNK_ROWS
    assert evaluated == [chunk, chunk, 3]
    assert formatted == [{chunk}, {chunk}, {3}]


def test_main_scan_memory_does_not_grow_with_rows(tmp_path):
    cfg, out = tmp_path / "scan.cfg", tmp_path / "out.csv"

    def peak_mib(step):
        cfg.write_text(MINIMAL.replace("delta_step = 0.5 GHz", f"delta_step = {step} GHz"))
        tracemalloc.start()
        try:
            assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    peak_mib(0.015)   # the first scan fills one-time caches of about 0.5 MB
    # 2*10^5 rows against 2*10^4: a full-length axis alone would add 1.4 MB
    assert peak_mib(0.0015) - peak_mib(0.015) < 0.5


def test_main_scan_warns_once_before_writing(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out.csv"
    at_emit = []
    emit = cli.emit_trace

    def emit_spy(trace, path, **kwargs):
        at_emit.append((capsys.readouterr().err, out.exists()))
        return emit(trace, path, **kwargs)

    monkeypatch.setattr(cli, "emit_trace", emit_spy)
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(CLIPPED_BOTH_ENDS)
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    assert at_emit == [(CLIPPING_WARNING + "\n", False)]
    assert capsys.readouterr().err == ""


def test_main_prints_clipping_warning_as_one_line(tmp_path, capsys):
    # fig3a has no sidebands, so the default axis runs past the support
    out = tmp_path / "fig3a.csv"
    cfg = tmp_path / "fig.cfg"
    cfg.write_text("schema = 1\n[figure]\ncase = fig3a\n")
    assert main(["figure", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [CLIPPING_WARNING]
    cfg.write_text(MINIMAL.replace("preset = fig4b", "preset = fig3a"))
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [CLIPPING_WARNING]


def test_main_fit_prints_clipping_warning_as_one_line(tmp_path, capsys):
    # fig3a has no sidebands, so the synthetic fit's axis runs past the support
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(MINIMAL.replace("preset = fig4b", "preset = fig3a"))
    assert main(["fit", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err.splitlines() == [CLIPPING_WARNING]


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# the commands that read each sample config: its sections are ones the command
# reads, and it holds the sections the command needs
CONFIG_READERS = {
    "explicit_reference": ("scan", "fit"),
    "fig3a": ("figure",),
    "fig3b": ("figure",),
    "fig4a": ("figure",),
    "fig4b": ("figure",),
    "fit_demo": ("scan", "fit"),
    "out_of_regime": ("validate",),
    "reference_scan": ("scan", "fit"),
}


@pytest.mark.parametrize("name, command", [
    (name, command) for name, commands in CONFIG_READERS.items() for command in commands])
def test_sample_configs_print_at_most_the_clipping_line(tmp_path, capsys, name, command):
    assert sorted(CONFIG_READERS) == sorted(p.stem for p in CONFIGS.glob("*.cfg"))
    cfg = CONFIGS / f"{name}.cfg"
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err in ("", CLIPPING_WARNING + "\n")


def test_main_hashes_waveform_scenarios_exactly(tmp_path):
    # two random-phase drives 1e-11 rad apart in one sample; numpy's 8-digit
    # display of their coefficients is the same, their traces are not
    phases = np.random.default_rng(3).uniform(-np.pi, np.pi, 256)
    nudged = phases.copy()
    nudged[17] += 1e-11

    def scan(values, name):
        wave, cfg, out = (tmp_path / f"{name}.txt", tmp_path / f"{name}.cfg",
                          tmp_path / f"{name}.csv")
        wave.write_text("".join(f"{j / 256!r} {v!r}\n" for j, v in enumerate(values.tolist())))
        cfg.write_text(MINIMAL.replace("preset = fig4b", "preset = fig3a")
                       + f"mod1_waveform = {wave}\n")
        assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads(Path(f"{out}.meta").read_text())
        return out.read_bytes(), meta["scenario_sha256"]

    csv_a, hash_a = scan(phases, "a")
    csv_b, hash_b = scan(nudged, "b")
    assert csv_a != csv_b and hash_a != hash_b
    assert scan(phases, "a") == (csv_a, hash_a)


def test_main_rejects_a_huge_depth_at_once(tmp_path, capsys):
    # the depth is checked before any Bessel order is computed
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(MINIMAL + "mod1_depth = 1e9 rad\n")
    start = time.perf_counter()
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "config error: modulation depth 1e+09 rad is too large: "
        "|depth| must be at most 157 rad\n")


def _scan_files(tmp_path, convention, fwhm):
    """(CSV bytes, .meta text) of a scan of ``EXPLICIT`` with both filters at
    ``fwhm`` read per ``convention``."""
    text = (EXPLICIT.replace("fwhm_convention = intensity", f"fwhm_convention = {convention}")
            .replace("filter1_fwhm = 8.5 GHz", f"filter1_fwhm = {fwhm} GHz")
            .replace("filter2_fwhm = 8.5 GHz", f"filter2_fwhm = {fwhm} GHz")
            + "[scan]\ndelta_min = -150 GHz\ndelta_max = 150 GHz\ndelta_step = 0.5 GHz\n")
    cfg, out = tmp_path / f"{convention}-{fwhm}.cfg", tmp_path / f"{convention}-{fwhm}.csv"
    cfg.write_text(text)
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    return out.read_bytes(), Path(str(out) + ".meta").read_text()


def test_field_convention_scan_equals_its_intensity_equivalent(tmp_path):
    # a field FWHM of 12 GHz is an intensity FWHM of 12/sqrt(2) GHz, whose
    # repr is the quoted 8.48528137423857
    field = _scan_files(tmp_path, "field", "12")
    assert field == _scan_files(tmp_path, "intensity", "8.48528137423857")
    assert field[0] != _scan_files(tmp_path, "intensity", "12")[0]


def test_main_scan_byte_identical(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(MINIMAL)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["scan", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_main_figure(tmp_path):
    cfg = tmp_path / "fig.cfg"
    cfg.write_text("schema = 1\n[figure]\ncase = fig3b\n")
    out = tmp_path / "fig3b.csv"
    assert main(["figure", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 602
    # figure without a case is a config error
    empty = tmp_path / "empty.cfg"
    empty.write_text("schema = 1\n")
    assert main(["figure", "--config", str(empty), "--out", str(out)]) == 2


def test_main_figure_gnuplot(tmp_path):
    cfg = tmp_path / "fig.cfg"
    cfg.write_text("schema = 1\n[figure]\ncase = fig3a\n[scan]\n"
                   "delta_min = -14 GHz\ndelta_max = 14 GHz\ndelta_step = 0.5 GHz\n")
    out = tmp_path / "fig.dat"
    assert main(["figure", "--config", str(cfg), "--out", str(out),
                 "--gnuplot-style"]) == 0
    assert out.read_text().splitlines()[0].startswith("# ")


@pytest.mark.parametrize("fwhm", ["12 GHz", "1e160 GHz"])
def test_main_figure_rejects_scenario_section(tmp_path, capsys, fwhm):
    # figure writes the preset named by [figure] case, so a [scenario]
    # section would otherwise be dropped without notice
    cfg = tmp_path / "fig.cfg"
    cfg.write_text(f"schema = 1\n[figure]\ncase = fig4a\n[scenario]\nfilter2_fwhm = {fwhm}\n")
    out = tmp_path / "fig.csv"
    assert main(["figure", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "line 5" in err and "[scenario]" in err
    assert not out.exists()


# (command, config text, the section and line the message names)
@pytest.mark.parametrize("command, text, section, line", [
    pytest.param("scan", MINIMAL + "[figure]\ncase = fig3a\n", "figure", 11,
                 id="scan [figure]"),
    pytest.param("scan", MINIMAL + "[fit]\ndata = nowhere.csv\n", "fit", 11, id="scan [fit]"),
    pytest.param("validate", MINIMAL, "scan", 4, id="validate [scan]"),
    pytest.param("validate",
                 "schema = 1\n[fit]\ndata = nowhere.csv\n[figure]\ncase = fig3a\n",
                 "fit", 3, id="validate [fit] [figure]"),
    pytest.param("figure", "schema = 1\n[figure]\ncase = fig3b\n[fit]\ndata = nowhere.csv\n",
                 "fit", 5, id="figure [fit]"),
    pytest.param("fit", MINIMAL + "[figure]\ncase = fig3a\n", "figure", 11, id="fit [figure]"),
    # a header without keys is named by its own line
    pytest.param("validate", "schema = 1\n[scan]\n", "scan", 2, id="validate empty [scan]"),
    pytest.param("scan", MINIMAL + "[figure]\n", "figure", 10, id="scan empty [figure]"),
    pytest.param("figure", "schema = 1\n[fit]\n[figure]\ncase = fig3b\n", "fit", 2,
                 id="figure empty [fit]"),
])
def test_main_rejects_sections_the_command_does_not_read(tmp_path, capsys, command, text,
                                                         section, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "x.out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: line {line}: {command} does not read a [{section}] section; "
        "remove it"]
    assert not out.exists()


def test_main_fit_synthetic(tmp_path, capsys):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(MINIMAL.replace("preset = fig4b", "preset = fig3b")
                   + "\n[run]\nseed = 11\ndwell = 20 s\n")
    out = tmp_path / "fit.txt"
    assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
    report = out.read_text()
    values = dict(line.split(" = ") for line in report.splitlines() if " = " in line)
    scn = figure_preset("fig3b")
    true_product = scn.filter1.alpha ** 2 * scn.filter2.alpha ** 2
    assert float(values["scale_product"]) == pytest.approx(true_product, rel=0.05)


def test_main_fit_from_file(tmp_path):
    scn = figure_preset("fig3b")
    axis = np.arange(-150.0, 150.5, 0.5)
    trace = coincidence_trace(scn, axis)
    from modlab import synthesize_counts
    counts = synthesize_counts(trace, dwell=20.0, seed=4)
    data = tmp_path / "counts.csv"
    data.write_text("delta_ghz,counts\n" + "\n".join(
        f"{d:.10g},{c}" for d, c in zip(axis, counts)) + "\n")
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(MINIMAL.replace("preset = fig4b", "preset = fig3b")
                   + f"\n[fit]\ndata = {data}\n")
    assert main(["fit", "--config", str(cfg)]) == 0


def test_main_validate(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["validate", "--out", str(out)]) == 0
    report = out.read_text()
    assert "PASS bessel_addition_theorem" in report
    assert report.splitlines()[-1].startswith("OK")


def test_run_config_axis_requires_scan():
    run = RunConfig()
    from modlab import ConfigurationError
    with pytest.raises(ConfigurationError):
        run.delta_axis()
