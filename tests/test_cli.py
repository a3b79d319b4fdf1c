"""Config parsing, output emission, validation command and exit codes."""

import errno
import functools
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from modlab import (ConfigParseError, ConfigurationError, ConvergenceError, ExperimentScenario,
                    SidebandModel, figure_preset, regime_report, sinusoidal_coeffs)
from modlab import cli, modulation, textfmt
from modlab.cli import (MAX_SCAN_ROWS, RunConfig, emit_trace, main, parse_config,
                        run_validate)
from modlab.correlator import (CLIPPING_MESSAGE, CorrelationTrace, LazyTrace, UniformAxis,
                               coincidence_trace)
from modlab.scenario import (FIGURE_CASES, PRESET_R2_RATE, REFERENCE_ALPHA1_SQ,
                             REFERENCE_ALPHA2_SQ, REFERENCE_DISPERSION, REFERENCE_FILTER_FWHM,
                             REFERENCE_GATE_NS, REFERENCE_OMEGA_M, REFERENCE_PUMP_FREQUENCY,
                             reference_scenario)
from modlab.spdc_core import amplitudes_from_rate

SRC = Path(__file__).resolve().parent.parent / "src"
CHUNK_ROWS = cli._EMIT_CHUNK_ROWS

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


@pytest.mark.parametrize("case", FIGURE_CASES)
def test_minimal_preset_passthrough(case):
    run, scenario = parse_config(MINIMAL.replace("fig4b", case), command="scan")
    assert scenario == figure_preset(case)
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


def test_preset_keeps_its_slits_under_a_dispersion_and_pump():
    # the slits are among the preset's values, in mm: a dispersion given over
    # the preset moves each filter's centre with it, not to the new pump's half
    text = MINIMAL + "dispersion = 100 GHz/mm\npump_frequency = 500000 GHz\n"
    _, scenario = parse_config(text, command="scan")
    preset = figure_preset("fig4b")
    assert (scenario.dispersion, scenario.pump_frequency) == (100.0, 500000.0)
    for filt, ref in ((scenario.filter1, preset.filter1), (scenario.filter2, preset.filter2)):
        assert filt.slit == ref.slit == (0.5 * REFERENCE_PUMP_FREQUENCY) / REFERENCE_DISPERSION
        assert filt.center == 100.0 * ref.slit


@pytest.mark.parametrize("drives", [(0.0, 0.0, 0.0, 0.0), (1.5, 0.25, -0.5, math.pi)])
def test_reference_scenario_equals_its_explicit_config(drives):
    depth1, depth2, phase1, phase2 = drives
    scenario = reference_scenario(depth1, depth2, phase1, phase2)
    b0 = abs(amplitudes_from_rate(PRESET_R2_RATE, scenario.filter2)[1])
    text = textwrap.dedent(f"""\
        schema = 1
        [scenario]
        pump_frequency = {REFERENCE_PUMP_FREQUENCY!r} GHz
        modulation_frequency = {REFERENCE_OMEGA_M!r} GHz
        gate = {REFERENCE_GATE_NS!r} ns
        dispersion = {REFERENCE_DISPERSION!r} GHz/mm
        b0 = {b0!r}
        mod1_depth = {depth1!r} rad
        mod1_phase = {phase1!r} rad
        mod2_depth = {depth2!r} rad
        mod2_phase = {phase2!r} rad
        filter1_fwhm = {REFERENCE_FILTER_FWHM!r} GHz
        filter1_alpha_sq = {REFERENCE_ALPHA1_SQ!r}
        filter2_fwhm = {REFERENCE_FILTER_FWHM!r} GHz
        filter2_alpha_sq = {REFERENCE_ALPHA2_SQ!r}
        """)
    assert parse_config(text, command="validate")[1] == scenario


def test_scenario_error_is_a_config_parse_error(capsys):
    # a modulator's error, like a filter's, comes from parse_config as a
    # ConfigParseError, its text unchanged
    text = MINIMAL.replace("fig4b", "fig4a") + "mod1_depth = 200 rad\n"
    message = "modulation depth 200 rad is too large: |depth| must be at most 157 rad"
    with pytest.raises(ConfigParseError) as info:
        parse_config(text, command="scan")
    assert (str(info.value), info.value.line) == (message, None)


def test_waveform_errors_come_before_scenario_errors(tmp_path):
    # the waveform files are read before the scenario is built, so an
    # unreadable mod2_waveform is reported before mod1's depth
    text = MINIMAL + f"mod1_depth = 200 rad\nmod2_waveform = {tmp_path / 'missing.txt'}\n"
    with pytest.raises(ConfigParseError, match="cannot read waveform file") as info:
        parse_config(text, command="scan")
    assert info.value.line == len(MINIMAL.splitlines()) + 2


@pytest.mark.parametrize("command", ["scan", "fit", "validate"])
@pytest.mark.parametrize("text", [
    EXPLICIT.replace("dispersion = 210 GHz/mm", "dispersion = 0 GHz/mm"),
    "schema = 1\n[scenario]\npreset = fig4a\ndispersion = 0 GHz/mm\n",
], ids=["explicit", "preset-override"])
def test_zero_dispersion_is_a_config_error(tmp_path, capsys, command, text):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(text)
    # the default slits divide by the dispersion
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: invalid scenario: dispersion must be positive"]


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


def test_second_schema_key_rejected_at_its_line():
    with pytest.raises(ConfigParseError, match="duplicate key 'schema'") as info:
        parse_config("schema = 1\nschema = 1\n[scenario]\npreset = fig3a\n", command="scan")
    assert info.value.line == 2


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


def test_emit_trace_csv(tmp_path):
    scn = figure_preset("fig3a")
    axis = -150.0 + 0.5 * np.arange(601)
    trace = coincidence_trace(scn, axis)
    out = tmp_path / "t.csv"
    emit_trace(trace, out, scenario=scn, gnuplot_style=False)
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
    emit_trace(trace, a, scenario=scn, gnuplot_style=False)
    emit_trace(coincidence_trace(scn, axis), b, scenario=scn, gnuplot_style=False)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.meta").read_bytes() == (tmp_path / "b.csv.meta").read_bytes()


def test_emit_empty_trace_header_only(tmp_path):
    scn = figure_preset("fig3a")
    trace = coincidence_trace(scn, np.array([]))
    out = tmp_path / "empty.csv"
    emit_trace(trace, out, scenario=None, gnuplot_style=False)
    assert out.read_text() == "delta_ghz,paired,accidental,total,n_index\n"


def test_emit_gnuplot_style(tmp_path):
    scn = figure_preset("fig3a")
    trace = coincidence_trace(scn, np.arange(-5.0, 5.5, 0.5))
    out = tmp_path / "t.dat"
    emit_trace(trace, out, scenario=None, gnuplot_style=True)
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
                            accidental=np.full(n_rows, -0.0),
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
    cases = _across_chunks_cases()
    assert set(cases["constant n_index"][0].n_index.tolist()) == {0}
    distinct = cases["distinct n_index"][0].n_index
    assert len(set(distinct.tolist())) == len(distinct)
    out = tmp_path / "out.csv"
    for name, (trace, texts) in cases.items():
        ref = _reference_bytes(texts, gnuplot_style)
        emit_trace(trace, out, scenario=None, gnuplot_style=gnuplot_style)
        assert out.read_bytes() == ref, name
    # emitting the last multi-chunk trace again gives the same bytes
    emit_trace(trace, out, scenario=None, gnuplot_style=gnuplot_style)
    assert out.read_bytes() == ref


@pytest.mark.parametrize("gnuplot_style", [False, True])
def test_emit_trace_matches_row_reference_edge_values(tmp_path, gnuplot_style):
    # the last four rows give the total column -1e22, 1.0, -5e-324 and 1e-5
    trace = CorrelationTrace(
        delta_axis=np.array([-0.0, 5e-324, 1e22, -1.0 / 3.0, -1e22, 1.0, -5e-324, 1e-5]),
        paired=np.array([0.0, -0.0, 1e-300, 2.0 / 3.0, -1e22, 0.5, -5e-324, 1e-5]),
        accidental=np.array([1e22, 5e-324, 0.1, 123456789012345678.0, 0.0, 0.5, -0.0, 0.0]),
        n_index=np.array([-3, -1, 0, 7, -8, 2, -5, 9]))
    assert trace.total[4:].tolist() == [-1e22, 1.0, -5e-324, 1e-5]
    out = tmp_path / "out.csv"
    emit_trace(trace, out, scenario=None, gnuplot_style=gnuplot_style)
    assert out.read_bytes() == _reference_bytes(_value_texts(trace), gnuplot_style)
    assert out.read_text().splitlines()[1].split(" " if gnuplot_style else ",")[0] == "-0"


# the full tier's offset grid spans filter 1 alone, so its size does not
# depend on the modulation frequency; at 1e308 GHz the sideband frequencies
# k * w_m overflow to inf from k = 2, which flat amplitudes never read
@pytest.mark.parametrize("omega_m", ["1e6", "1e160", "1e308"])
def test_main_validate_at_a_huge_modulation_frequency(capsys, tmp_path, omega_m):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FIG4A_VALIDATE + f"modulation_frequency = {omega_m} GHz\n")
    assert main(["validate", "--config", str(cfg)]) == 0
    out, err = capsys.readouterr()
    assert [line.split()[0] for line in out.splitlines()] == ["PASS"] * 15 + ["OK"]
    assert out.splitlines()[-2].startswith("PASS tier_agreement rel_rms=")
    assert err == ""


# the closed form's peak is subnormal, 5.46e-314, so the power of two that
# scales it into [0.5, 1) is 2^1040, past the largest float
def test_main_validate_with_a_subnormal_closed_form_peak(capsys, tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("schema = 1\n[scenario]\npreset = fig4b\n"
                   "filter1_alpha_sq = 5e-324\nfilter2_fwhm = 1e16 GHz\n")
    assert main(["validate", "--config", str(cfg)]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-2:] == ["PASS tier_agreement rel_rms=1.686e-07",
                                     "OK 15 checks, 0 failures"]
    assert err == ""


def test_main_scan_with_a_huge_drive_phase(capsys, tmp_path):
    # k * phase overflows unless the phase is reduced mod 2 pi first
    text = MINIMAL.replace("preset = fig4b", "preset = fig4a") + "mod2_phase = 1e308 rad\n"
    cfg = tmp_path / "phase.cfg"
    cfg.write_text(text)
    out = tmp_path / "phase.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr() == (f"wrote 601 rows to {out}\n", "")
    reduced = sinusoidal_coeffs(1.5, math.remainder(1e308, 2.0 * math.pi), REFERENCE_OMEGA_M)
    assert parse_config(text, command="scan")[1].mod2 == reduced


def test_main_fit_with_a_passband_narrow_against_its_center(capsys, tmp_path):
    # a 0.01 GHz filter at 2.8e5 GHz: its singles rate is integrated over
    # offsets from the center, so the rounding of absolute frequencies there
    # (5.8e-11 GHz) does not enter the Simpson rule
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(MINIMAL.replace("preset = fig4b", "preset = fig3b")
                   + "filter1_fwhm = 0.01 GHz\n")
    assert main(["fit", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""


def test_main_scan_keeps_the_accidental_floor_of_a_narrow_filter(capsys, tmp_path):
    # a 1e-11 GHz filter at 2.8e5 GHz, where absolute frequencies round by
    # 5.8e-11 GHz: the floor R1 R2 T of every row is that of the closed-form
    # singles rates, |B0|^2 / (4 pi) times each filter's intensity integral
    text = MINIMAL.replace("preset = fig4b", "preset = fig3b") + "filter1_fwhm = 1e-11 GHz\n"
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(text)
    out = tmp_path / "narrow.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr() == (f"wrote 601 rows to {out}\n", "")
    _, scn = parse_config(text, command="scan")
    r1, r2 = (abs(scn.amplitudes.b0) ** 2 / (4.0 * math.pi) * filt.intensity_integral()
              * float((np.abs(mod.coeffs) ** 2).sum())
              for filt, mod in ((scn.filter1, scn.mod1), (scn.filter2, scn.mod2)))
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    accidental = {float(row[2]) for row in rows}
    assert len(rows) == 601 and len(accidental) == 1
    floor = accidental.pop()
    assert floor != 0.0
    assert floor == pytest.approx(r1 * r2 * scn.gate_ns * 1e-9, rel=1e-11)


@pytest.mark.parametrize("alpha1_sq,alpha2_sq,shown", [
    ("1e-170", "1e170", "1e-170 and alpha2^2 = 1e+170"),
    ("1e-160", "1e160", "1e-160 and alpha2^2 = 1e+160")], ids=["to-zero", "to-inf"])
def test_main_fit_refuses_a_split_into_zero_or_inf(capsys, tmp_path, alpha1_sq, alpha2_sq,
                                                   shown):
    # the product is 1 and the rates finite, but at the configured ratio the
    # per-channel scales sqrt(scale * ratio), sqrt(scale / ratio) underflow to
    # 0 (the ratio itself does at 1e-340) or overflow to inf
    cfg = tmp_path / "split.cfg"
    cfg.write_text((CONFIGS / "fit_demo.cfg").read_text()
                   + f"filter1_alpha_sq = {alpha1_sq}\nfilter2_alpha_sq = {alpha2_sq}\n")
    assert main(["fit", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("config error: fitted product ")
    assert err.endswith(f"splits into a per-channel scale of 0 or inf at configured "
                        f"alpha1^2 = {shown}\n")


def test_fit_far_tail_offsets_warn_nothing(tmp_path, capsys):
    # the fit's offset search spans half a drive period, 5e159 GHz, whose
    # square overflows to inf: the lineshape there is exactly 0, silently
    # (a numpy warning would raise here, under the suite's warning filter)
    cfg = tmp_path / "fit.cfg"
    cfg.write_text((CONFIGS / "fit_demo.cfg").read_text().replace(
        "preset = fig3b", "preset = fig4a\nmodulation_frequency = 1e160 GHz"))
    assert main(["fit", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""


def test_run_validate_flags_corrupted_bessel(monkeypatch):
    real = modulation.bessel_j_sequence

    def corrupted(nmax, x):
        return real(nmax, x) * (1.0 + 1e-6)

    monkeypatch.setattr(modulation, "bessel_j_sequence", corrupted)
    code, results = run_validate(None)
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
    # filter 1 spans 1.2e5 filter-2 widths: the full tier's offset grid would
    # need 3.2e7 points
    pytest.param("validate", FIG4A_VALIDATE + "filter1_fwhm = 1e6 GHz\n", [], None,
                 ("1e+06 and 8.5 GHz", "31974469 points", "limit of 16384"),
                 id="validate filter1_fwhm = 1e6 GHz"),
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
    # each flag is read as its [run] key: kind, unit, finiteness and sign
    pytest.param("fit", MINIMAL, ["--seed", "1.5"], None,
                 ("--seed: key 'seed' takes an integer (got '1.5')",), id="--seed 1.5"),
    pytest.param("fit", MINIMAL, ["--seed", "1e3"], None,
                 ("--seed: key 'seed' takes an integer (got '1e3')",), id="--seed 1e3"),
    pytest.param("fit", MINIMAL + "[run]\nseed = 1.5\n", [], None,
                 ("line 11: key 'seed' takes an integer (got '1.5')",), id="seed = 1.5"),
    pytest.param("fit", MINIMAL, ["--seed", "abc"], None,
                 ("--seed: non-numeric value for key 'seed': 'abc'",), id="--seed abc"),
    # a value that starts with a dash is the flag's value, not an option
    pytest.param("fit", MINIMAL, ["--dwell", "-1e5"], None, ("--dwell: dwell must be positive",),
                 id="--dwell -1e5"),
    pytest.param("fit", MINIMAL, ["--dwell=-1e5"], None, ("--dwell: dwell must be positive",),
                 id="--dwell=-1e5"),
    pytest.param("fit", MINIMAL, ["--seed", "-inf"], None,
                 ("--seed: key 'seed' takes an integer (got '-inf')",), id="--seed -inf"),
    pytest.param("fit", MINIMAL, ["--seed", "-"], None,
                 ("--seed: non-numeric value for key 'seed': '-'",), id="--seed -"),
    pytest.param("fit", MINIMAL, ["--dwell", "0"], None, ("--dwell: dwell must be positive",),
                 id="--dwell 0"),
    pytest.param("fit", MINIMAL, ["--dwell", "1e400"], None, ("--dwell: non-finite",),
                 id="--dwell 1e400"),
    pytest.param("fit", MINIMAL, ["--dwell", "20 ms"], None,
                 ("--dwell: unit mismatch for key 'dwell': expected s, got ms",),
                 id="--dwell 20 ms"),
    # usage errors: one line naming the argument, not argparse's usage block
    pytest.param("frob", MINIMAL, [], None, ("argument command: invalid choice: 'frob'",),
                 id="unknown command"),
    pytest.param("scan", MINIMAL, ["--bogus"], None, ("unrecognized arguments: --bogus",),
                 id="unknown option"),
    pytest.param("scan", MINIMAL, ["--seed"], None, ("argument --seed: expected one argument",),
                 id="--seed without a value"),
    # _parse_scalar's own errors, each at its key's line
    pytest.param("scan", MINIMAL + "gate =\n", [], None,
                 ("line 10: empty value for key 'gate'",), id="gate ="),
    pytest.param("scan", MINIMAL.replace("preset = fig4b", "preset = fig4b fig4a"), [], None,
                 ("line 9: key 'preset' takes a single word",), id="two-word preset"),
    pytest.param("scan", MINIMAL + "mod1_waveform = a b\n", [], None,
                 ("line 10: key 'mod1_waveform' takes a single token",),
                 id="two-token mod1_waveform"),
    pytest.param("scan", MINIMAL + "gate = 1.25 ns wide\n", [], None,
                 ("line 10: cannot parse value '1.25 ns wide' for key 'gate'",),
                 id="three-token gate"),
    pytest.param("scan", MINIMAL + "gate = fast ns\n", [], None,
                 ("line 10: non-numeric value for key 'gate': 'fast'",), id="non-numeric gate"),
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
    pytest.param("fit", MINIMAL + "[fit]\ndata = {data}\n", [], _fit_data("-4.0,96,1"),
                 ("counts.csv:4: expected two CSV columns",), id="three columns in fit data"),
    pytest.param("fit", MINIMAL + "[fit]\ndata = {data}\n", [],
                 _fit_data("-4.0,96").replace("delta_ghz,counts", "delta,counts"),
                 ("counts.csv:1: fit data file must start with 'delta_ghz,counts' "
                  "(got 'delta,counts')",),
                 id="wrong fit data header"),
    # a fit whose products overflow, or all underflow to zero, on a data file
    *[pytest.param("fit", MINIMAL + "[fit]\ndata = {data}\n", argv, _fit_data(row),
                   (f"fit leaves the floating-point range: dwell {dwell} s, "
                    f"largest count {count}",), id=name)
      for name, argv, row, dwell, count in [
          ("--dwell 1e308 on fit data", ["--dwell", "1e308"], "-4.0,96", "1e+308", "105.0"),
          ("--dwell 1e300 on fit data", ["--dwell", "1e300"], "-4.0,96", "1e+300", "105.0"),
          ("--dwell 1e-300 on fit data", ["--dwell", "1e-300"], "-4.0,96", "1e-300", "105.0"),
          ("count 1e308 in fit data", [], "-4.0,1e308", "20.0", "1e+308")]],
    # the waveform file named is not the one written, and does not exist
    pytest.param("scan", MINIMAL + "mod1_waveform = {data}.missing\n", [], "",
                 ("line 10: cannot read waveform file", "wave.txt.missing"),
                 id="unreadable waveform"),
])
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


# (command, config text, name and text of the fit-data or waveform file named
# {data} in the config, or None when the config itself holds the bad byte);
# each file is written as Latin-1, so its \xff is one byte that UTF-8 never has
@pytest.mark.parametrize("command, text, name, data", [
    pytest.param("validate", "schema = 1\n# caf\xff\n[scenario]\npreset = fig4a\n", None,
                 None, id="config"),
    pytest.param("fit", MINIMAL + "[fit]\ndata = {data}\n", "counts.csv",
                 _fit_data("-4.0,9\xff"), id="fit data"),
    pytest.param("scan", MINIMAL + "mod1_waveform = {data}\n", "wave.txt",
                 _waveform("0.046875 0.\xff"), id="waveform"),
])
def test_main_rejects_a_file_that_is_not_utf8(tmp_path, capsys, command, text, name, data):
    cfg = tmp_path / "bad.cfg"
    path = cfg if name is None else tmp_path / name
    if name is not None:
        path.write_bytes(data.encode("latin-1"))
    cfg.write_bytes(text.format(data=path).encode("latin-1"))
    byte = path.read_bytes().index(b"\xff")
    out = tmp_path / "x.out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"config error: {path}: not UTF-8 text (byte {byte})"]
    assert "Traceback" not in err
    assert not out.exists()


# (command, config text, name and text of the fit-data or waveform file named
# {data} in the config, or None when the config itself starts with the mark);
# the waveform's first line is a comment
@pytest.mark.parametrize("command, text, name, data", [
    pytest.param("scan", MINIMAL, None, None, id="config"),
    pytest.param("fit", MINIMAL + "[fit]\ndata = {data}\n", "counts.csv",
                 _fit_data("-4.0,96"), id="fit data"),
    pytest.param("scan", MINIMAL + "mod1_waveform = {data}\n", "wave.txt",
                 "# time phase\n" + _waveform("0.046875 0.0"), id="waveform"),
])
def test_main_drops_a_leading_byte_order_mark(tmp_path, capsys, command, text, name, data):
    cfg, out = tmp_path / "run.cfg", tmp_path / "x.out"
    path = cfg if name is None else tmp_path / name
    runs = []
    for mark in ("\ufeff", ""):
        if name is not None:
            path.write_text(mark + data, encoding="utf-8")
        cfg.write_text((mark if name is None else "") + text.format(data=path),
                       encoding="utf-8")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        runs.append((capsys.readouterr(), out.read_bytes()))
    # the file with the mark reads as the same file without it
    assert runs[0] == runs[1]


# with two waveform files, an error of one file as a whole names that file
@pytest.mark.parametrize("rows, message", [
    pytest.param([f"{j / 32} 0.0" for j in range(32)],
                 "waveform file needs at least 64 samples per period", id="32 samples"),
    pytest.param([f"{(j / 64) ** 1.01!r} 0.0" for j in range(64)],
                 "waveform times must be uniform fractions of the period: 0, 1/N, ..., (N-1)/N",
                 id="uneven times"),
])
def test_waveform_file_errors_name_their_file(tmp_path, capsys, rows, message):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text(_waveform("0.046875 0.0"))
    bad.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "two.cfg"
    cfg.write_text(MINIMAL + f"mod1_waveform = {good}\nmod2_waveform = {bad}\n")
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "x.out")]) == 2
    assert capsys.readouterr().err == f"config error: {bad}: {message}\n"


# \x0c and \u2028 are whitespace within a row, not line ends as str.splitlines
# has them; line 5 of each file is the bad one. Each entry: the file's name,
# the config that names it (None: the file is the config), its rows and the
# error reported
ROW_FILES = {
    "fit": ("counts.csv", MINIMAL + "[fit]\ndata = {data}\n",
            ["delta_ghz,counts", "-6.0,94\x0c", "-5.0,95\u2028", "", "-4.0,x", "-3.0,97"],
            "{path}:5: non-numeric value"),
    "scan": ("wave.txt", MINIMAL + "mod1_waveform = {data}\n",
             ["# time phase", "0.0 0.0\x0c", "0.015625 0.0\u2028", "", "0.03125 x"],
             "{path}:5: non-numeric value"),
    "validate": ("bad.cfg", None,
                 ["schema = 1", "# note\x0cmore", "[scenario]", "preset = fig4b\u2028", "bad x"],
                 "line 5: expected 'key = value', got 'bad x'"),
}


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("command", sorted(ROW_FILES))
def test_main_numbers_data_lines_as_text_mode_does(tmp_path, capsys, command, end):
    name, text, rows, message = ROW_FILES[command]
    path = tmp_path / name
    path.write_bytes(end.join(rows).encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        assert [n for n, raw in enumerate(fh, start=1) if " x" in raw or ",x" in raw] == [5]
    cfg = path
    if text is not None:
        cfg = tmp_path / "rows.cfg"
        cfg.write_text(text.format(data=path))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x.out")]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["config error: " + message.format(path=path)]


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
    emit_trace(trace, ref, scenario=scenario, gnuplot_style=False)
    assert out.read_bytes() == ref.read_bytes()
    assert Path(f"{out}.meta").read_bytes() == Path(f"{ref}.meta").read_bytes()


def _run_python(*args, timeout=120):
    """``python *args`` in a fresh interpreter that imports this checkout's modlab."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env, text=True, timeout=timeout)


def test_entry_point_validate_prints_pinned_report():
    from test_golden_outputs import VALIDATE_SHARED_LINES, VALIDATE_TAILS
    proc = _run_python("-m", "modlab.cli", "validate")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == VALIDATE_SHARED_LINES + VALIDATE_TAILS["default"][1]
    assert proc.stderr == ""


def test_entry_point_config_error_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("schema = 1\n[scan]\ndelta_min = -1 GHz\n")
    proc = _run_python("-m", "modlab.cli", "scan", "--config", str(cfg),
                       "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("config error: ")


# a bad flag value and a usage error end main as any config error does: one
# line, no usage block, exit 2
@pytest.mark.parametrize("argv, message", [
    (["scan", "--seed", "1.5"], "--seed: key 'seed' takes an integer (got '1.5')"),
    ([], "the following arguments are required: command"),
], ids=["--seed 1.5", "no arguments"])
def test_entry_point_usage_error_is_one_line(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")


# a flag is matched whole: a prefix of one is an unknown option, not that flag
@pytest.mark.parametrize("argv, message", [
    (["--config", "configs/fit_demo.cfg", "--se", "12"], "unrecognized arguments: --se 12"),
    (["--conf", "configs/fit_demo.cfg"], "unrecognized arguments: --conf configs/fit_demo.cfg"),
], ids=["--se", "--conf"])
def test_main_refuses_a_flag_prefix(capsys, monkeypatch, argv, message):
    monkeypatch.chdir(CONFIGS.parent)
    assert main(["fit", *argv]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")


def test_main_takes_a_dash_led_path_as_the_value_of_out(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scan.cfg").write_text(MINIMAL)
    assert main(["scan", "--config", "scan.cfg", "--out", "-trace.csv"]) == 0
    assert capsys.readouterr().out == "wrote 601 rows to -trace.csv\n"
    assert len((tmp_path / "-trace.csv").read_text().splitlines()) == 602


def test_main_help_keeps_argparse_usage_and_exit_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: modlab [-h]")
    assert "random seed override" in out and "dwell time override (s)" in out


def test_main_reports_any_other_modlab_error_with_exit_1(capsys, monkeypatch):
    def fail(scenario):
        raise ConvergenceError("no convergence")

    monkeypatch.setattr(cli, "run_validate", fail)
    assert main(["validate"]) == 1
    assert capsys.readouterr() == ("", "error: no convergence\n")


# each flag sets its [run] key: the same value gives the same report bytes,
# whatever the config's own [run] section says
@pytest.mark.parametrize("run_section, flags", [
    ("seed = 11\ndwell = 20 s", ["--seed", "11"]),
    ("seed = 3\ndwell = 5 s", ["--seed", "11", "--dwell", "20"]),
    ("seed = 3\ndwell = 5 s", ["--dwell", "20 s", "--seed", "0011"]),
], ids=["fit_demo --seed 11", "--seed 11 --dwell 20", "--dwell '20 s' --seed 0011"])
def test_main_fit_flags_equal_their_run_keys(tmp_path, capsys, run_section, flags):
    demo = CONFIGS / "fit_demo.cfg"
    assert main(["fit", "--config", str(demo)]) == 0
    pinned = capsys.readouterr()
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(demo.read_text().replace("seed = 11\ndwell = 20 s", run_section))
    assert main(["fit", "--config", str(cfg), *flags]) == 0
    assert capsys.readouterr() == pinned


def test_entry_point_missing_out_directory_exits_3(tmp_path, capsys):
    cfg, out = tmp_path / "scan.cfg", tmp_path / "no_dir" / "x.csv"
    cfg.write_text(MINIMAL)
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr() == (
        "", f"i/o error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{out}'\n")


def test_entry_point_freezes_and_keeps_atexit_handlers():
    # atexit handlers (coverage's data save, say) run after the freeze
    code = ("import atexit, gc, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "sys.argv = ['modlab', 'validate', '--dwell', '0']\n"
            "from modlab.cli import process_main\n"
            "process_main()\n")
    proc = _run_python("-c", code)
    assert proc.returncode == 2
    assert proc.stdout == "frozen True\n"
    assert proc.stderr == "config error: --dwell: dwell must be positive\n"


def test_console_script_and_module_share_the_entry_point():
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    assert '[project.scripts]\nmodlab = "modlab.cli:process_main"\n' in pyproject
    assert Path(cli.__file__).read_text().endswith(
        '\n\nif __name__ == "__main__":\n    process_main()\n')


def test_validate_does_not_import_numpy_ma():
    code = ("import contextlib, io, sys\n"
            "from modlab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['validate']) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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
    # the spies log to files, which the helper process of emit_trace appends to as well
    evaluated, formatted = tmp_path / "evaluated", tmp_path / "formatted"
    evaluate, format_rows = SidebandModel.evaluate, textfmt.format_rows

    def log(path, sizes):
        with open(path, "a") as fh:
            fh.write(" ".join(map(str, sorted(sizes))) + "\n")

    def evaluate_spy(self, delta):
        log(evaluated, [len(delta)])
        return evaluate(self, delta)

    def format_spy(sep, columns, *args):
        log(formatted, {len(c) for c in columns})
        return format_rows(sep, columns, *args)

    monkeypatch.setattr(SidebandModel, "evaluate", evaluate_spy)
    monkeypatch.setattr(textfmt, "format_rows", format_spy)
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(CLIPPED_BOTH_ENDS)
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 0
    chunk = cli._EMIT_CHUNK_ROWS
    for path in (evaluated, formatted):
        assert sorted(map(int, path.read_text().split())) == [3, chunk, chunk]


def _assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _chunk_raising(monkeypatch, parity, exc, blocks=None):
    """Make ``LazyTrace.chunk`` raise ``exc``, or with None SIGKILL its
    process, on every chunk after the first two whose index has
    ``parity``: odd chunks are the helper's. With ``blocks``, such a chunk
    is made and fails once that many of its 4,096-line blocks are written."""
    chunk, format_rows = LazyTrace.chunk, textfmt.format_rows
    failing_chunk = []

    def fail():
        if exc is None:
            os.kill(os.getpid(), signal.SIGKILL)
        raise exc

    def failing(self, start, stop):
        k = start // cli._EMIT_CHUNK_ROWS
        if k >= 2 and k % 2 == parity:
            if blocks is None:
                fail()
            failing_chunk.append(k)
        return chunk(self, start, stop)

    def failing_blocks(sep, columns, canvas):
        for n, block in enumerate(format_rows(sep, columns, canvas)):
            if failing_chunk and n == blocks:
                fail()
            yield block

    monkeypatch.setattr(LazyTrace, "chunk", failing)
    monkeypatch.setattr(textfmt, "format_rows", failing_blocks)


@pytest.mark.parametrize("parity, exc, blocks, message", [
    (1, RuntimeError("boom"), None, "the helper process writing {out} exited with status 1"),
    (1, None, None, "the helper process writing {out} exited with status -9"),
    (1, None, 1, "the helper process writing {out} exited with status -9"),
    (0, OSError("disk gone"), None, "disk gone"),
    (0, OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), None,
     f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{{out}}'"),
], ids=["helper", "helper killed", "helper killed mid-chunk", "parent", "parent errno"])
def test_main_scan_failing_emit_process_exits_3(tmp_path, capsys, monkeypatch, parity, exc,
                                                blocks, message):
    # the helper's error, or the SIGKILL that ends it before its chunk 3 or
    # after the first block of it, is its exit status; the parent's own error
    # is its own, named by the output file when it carries an errno but no file
    _chunk_raising(monkeypatch, parity, exc, blocks)
    cfg, out = tmp_path / "scan.cfg", tmp_path / "out.csv"
    cfg.write_text(MULTI_CHUNK)
    # a longer CSV of an earlier run, and its .meta, lie at the output path
    out.write_bytes(b"\xff" * (16 << 20))
    meta = Path(f"{out}.meta")
    meta.write_text("{}\n")
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 3
    # a helper that returned into the caller would run this line too
    with open(tmp_path / "returned", "a") as fh:
        fh.write(f"{os.getpid()}\n")
    assert (tmp_path / "returned").read_text() == f"{os.getpid()}\n"
    assert capsys.readouterr().err.splitlines() == [f"i/o error: {message.format(out=out)}"]
    _assert_no_child_process()
    # left: an empty .meta, and the chunks this process knew whole, with no
    # old byte past them: 0 to 2 when the helper fails in or before 3, and 0
    # when this process fails at 2, before it takes the turn back after 1
    assert meta.read_bytes() == b""
    rows = (1 + 2 * parity) * cli._EMIT_CHUNK_ROWS
    run, scenario = parse_config(MULTI_CHUNK, command="scan")
    ref = tmp_path / "ref.csv"
    emit_trace(LazyTrace(scenario.model, UniformAxis(run.delta_min, run.delta_step, rows)), ref,
               scenario=scenario, gnuplot_style=False)
    assert out.read_bytes() == ref.read_bytes()


def test_emit_trace_leaves_no_child_process(tmp_path):
    trace = _fig4a_trace(-150.0, 150.0, 3 * cli._EMIT_CHUNK_ROWS)
    emit_trace(trace, tmp_path / "out.csv", scenario=None, gnuplot_style=False)
    _assert_no_child_process()
    if os.path.exists("/dev/full"):
        # the header's flush, before any fork, fails
        with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
            emit_trace(trace, "/dev/full", scenario=None, gnuplot_style=False)
        _assert_no_child_process()


def _counted_forks(monkeypatch):
    """A list that gets one entry per ``os.fork`` from now on."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


@pytest.mark.parametrize("n_rows", [300, 3 * 300 + 1], ids=["one process", "two processes"])
def test_emit_trace_rewrites_an_old_file_as_a_fresh_write_would(tmp_path, monkeypatch, n_rows):
    # a longer and a shorter old file become the fresh file's bytes, in place
    monkeypatch.setattr(cli, "_EMIT_CHUNK_ROWS", 300)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = _counted_forks(monkeypatch)
    scenario = figure_preset("fig4a")
    trace = LazyTrace(scenario.model, UniformAxis(-150.0, 300.0 / n_rows, n_rows))
    fresh = tmp_path / "fresh.csv"
    emit_trace(trace, fresh, scenario=scenario, gnuplot_style=False)
    expected = (fresh.read_bytes(), Path(f"{fresh}.meta").read_bytes())
    for old_size in (2 * len(expected[0]), len(expected[0]) // 2):
        out = tmp_path / f"old_{old_size}.csv"
        out.write_bytes(b"\xff" * old_size)
        Path(f"{out}.meta").write_text("{}\n")
        inode = out.stat().st_ino
        emit_trace(trace, out, scenario=scenario, gnuplot_style=False)
        assert (out.read_bytes(), Path(f"{out}.meta").read_bytes()) == expected, old_size
        assert out.stat().st_ino == inode
    assert len(forks) == (3 if n_rows > 300 else 0)
    _assert_no_child_process()


def test_emit_trace_empties_and_writes_the_old_meta_in_place(tmp_path, monkeypatch):
    # the earlier .meta is emptied at the start and written at the end through
    # its link; no directory entry is removed, so a directory that cannot take
    # one still works where its files are writable
    for name in ("remove", "unlink", "rename", "replace"):
        monkeypatch.setattr(os, name, lambda *args, **kwargs: pytest.fail("directory changed"))
    target, out = tmp_path / "kept.meta", tmp_path / "out.csv"
    target.write_text("{}\n")
    Path(f"{out}.meta").symlink_to(target)
    scenario = figure_preset("fig4a")
    trace = LazyTrace(scenario.model, UniformAxis(-150.0, 1.0, 301))
    emit_trace(trace, out, scenario=scenario, gnuplot_style=False)
    assert Path(f"{out}.meta").is_symlink()
    assert json.loads(target.read_text())["rows"] == 301
    # a run that fails leaves the linked .meta empty: not complete
    monkeypatch.setattr(LazyTrace, "chunk", lambda self, start, stop: _raise(OSError("gone")))
    with pytest.raises(OSError, match="gone"):
        emit_trace(trace, out, scenario=scenario, gnuplot_style=False)
    assert Path(f"{out}.meta").is_symlink()
    assert target.read_bytes() == b""
    assert out.read_bytes() == b"delta_ghz,paired,accidental,total,n_index\n"


def _raise(exc):
    raise exc


# a .meta that is a device or a FIFO is not emptied, only written last: a
# link to /dev/null discards it, and a FIFO's reader receives it
@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_main_figure_writes_a_meta_linked_to_dev_null(tmp_path, capsys):
    cfg, out, ref = CONFIGS / "fig4a.cfg", tmp_path / "o.csv", tmp_path / "ref.csv"
    assert main(["figure", "--config", str(cfg), "--out", str(ref)]) == 0
    capsys.readouterr()
    Path(f"{out}.meta").symlink_to("/dev/null")
    assert main(["figure", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr() == (f"wrote fig4a trace (601 rows) to {out}\n", "")
    assert out.read_bytes() == ref.read_bytes()
    assert len(out.read_bytes().splitlines()) == 1 + 601
    assert Path(f"{out}.meta").is_symlink()


def test_main_figure_writes_the_meta_into_a_fifo(tmp_path, capsys):
    cfg, out, ref = CONFIGS / "fig4a.cfg", tmp_path / "o.csv", tmp_path / "ref.csv"
    assert main(["figure", "--config", str(cfg), "--out", str(ref)]) == 0
    meta, read = Path(f"{out}.meta"), tmp_path / "read.meta"
    os.mkfifo(meta)
    with open(read, "wb") as sink:
        reader = subprocess.Popen(["cat", str(meta)], stdout=sink)
    try:
        assert main(["figure", "--config", str(cfg), "--out", str(out)]) == 0
        assert reader.wait(timeout=60) == 0
    finally:
        reader.kill()
        reader.wait()
    assert read.read_bytes() == Path(f"{ref}.meta").read_bytes()
    assert out.read_bytes() == ref.read_bytes()
    assert capsys.readouterr().err == ""


# the command's process killed at its chunk 2: the helper, having written
# chunk 1, stops at its next turn; nothing cuts the old file's tail, and the
# earlier .meta stays empty
_KILLED_AT_CHUNK_2 = textwrap.dedent("""\
    import os, signal, sys
    from modlab import cli
    from modlab.correlator import LazyTrace

    cli._EMIT_CHUNK_ROWS = 100
    os.sched_getaffinity = lambda pid: {0, 1}
    parent, fork, chunk = os.getpid(), os.fork, LazyTrace.chunk

    def recorded_fork():
        pid = fork()
        if pid:
            with open(sys.argv[1], "w") as fh:
                fh.write(str(pid))
        return pid

    def killing_chunk(self, start, stop):
        if start == 200 and os.getpid() == parent:
            os.kill(parent, signal.SIGKILL)
        return chunk(self, start, stop)

    os.fork, LazyTrace.chunk = recorded_fork, killing_chunk
    cli.main(["scan", "--config", sys.argv[2], "--out", sys.argv[3]])
    """)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_entry_point_killed_mid_write_leaves_an_empty_meta(tmp_path):
    cfg, out, pid_file = tmp_path / "scan.cfg", tmp_path / "out.csv", tmp_path / "helper.pid"
    cfg.write_text(MINIMAL)
    old = b"\xff" * (1 << 20)
    out.write_bytes(old)
    meta = Path(f"{out}.meta")
    meta.write_text("{}\n")
    proc = _run_python("-c", _KILLED_AT_CHUNK_2, str(pid_file), str(cfg), str(out))
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    # the helper, reparented, is gone or a zombie within the deadline
    helper = Path(f"/proc/{int(pid_file.read_text())}/stat")
    deadline = time.monotonic() + 60
    while helper.exists() and helper.read_text().rpartition(")")[2].split()[0] != "Z":
        assert time.monotonic() < deadline, "the helper is still running"
        time.sleep(0.01)
    assert meta.read_bytes() == b""
    run, scenario = parse_config(MINIMAL, command="scan")
    ref = tmp_path / "ref.csv"
    emit_trace(LazyTrace(scenario.model, UniformAxis(run.delta_min, run.delta_step, 200)), ref,
               scenario=scenario, gnuplot_style=False)
    rows = ref.read_bytes()
    assert out.read_bytes() == rows + old[len(rows):]


# devices are written through a link, so that the .meta goes beside it, not into /dev
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/null and /dev/full")
@pytest.mark.parametrize("device, code", [("/dev/null", 0), ("/dev/full", 3)])
def test_main_scan_writes_to_a_device_without_a_truncate(tmp_path, capsys, monkeypatch, device,
                                                         code):
    monkeypatch.setattr(cli, "_EMIT_CHUNK_ROWS", 100)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = _counted_forks(monkeypatch)
    cfg, out = tmp_path / "scan.cfg", tmp_path / "device.csv"
    cfg.write_text(MINIMAL)
    out.symlink_to(device)
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == (code == 3)
    assert Path(f"{out}.meta").exists() == (code == 0)
    assert len(forks) == (code == 0)   # /dev/full fails as the header is flushed
    _assert_no_child_process()


# a write error names the file it hits, as an open error does: the rows of a
# figure (one process), the header a scan of two or more chunks flushes
# before it forks, a fit report, and the .meta
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command, text, full", [
    ("figure", "schema = 1\n[figure]\ncase = fig4a\n", ""),
    ("scan", MULTI_CHUNK, ""),
    ("fit", MINIMAL, ""),
    ("scan", MINIMAL, ".meta"),
], ids=["figure rows", "scan header", "fit report", "scan meta"])
def test_main_write_error_names_the_file(tmp_path, capsys, monkeypatch, command, text, full):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg, out = tmp_path / "run.cfg", tmp_path / "full.csv"
    cfg.write_text(text)
    target = Path(f"{out}{full}")
    target.symlink_to("/dev/full")
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"i/o error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{target}'"]
    _assert_no_child_process()


def test_emit_trace_writes_in_turns_to_a_fifo(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_EMIT_CHUNK_ROWS", 100)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = _counted_forks(monkeypatch)
    fifo, read = tmp_path / "trace.fifo", tmp_path / "read.csv"
    os.mkfifo(fifo)
    # a reader process, not a thread: emit_trace forks
    with open(read, "wb") as sink:
        reader = subprocess.Popen(["cat", str(fifo)], stdout=sink)
    try:
        trace = _fig4a_trace(-150.0, 150.0, 5 * 100)
        emit_trace(trace, fifo, scenario=None, gnuplot_style=False)
        assert reader.wait(timeout=60) == 0
    finally:
        reader.kill()
    assert read.read_bytes() == _reference_bytes(_value_texts(trace))
    assert len(forks) == 1
    _assert_no_child_process()


@pytest.mark.parametrize("n_rows, cpus", [(256, {0, 1}), (3 * 256, {0}), (3 * 256, None)],
                         ids=["one chunk", "one cpu", "no affinity call"])
def test_emit_trace_forks_only_for_chunks_and_cpus_to_share(tmp_path, monkeypatch, n_rows, cpus):
    def no_fork():
        raise AssertionError("emit_trace forked")

    monkeypatch.setattr(os, "fork", no_fork)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(cli, "_EMIT_CHUNK_ROWS", 256)
    trace = _fig4a_trace(-150.0, 150.0, n_rows)
    out = tmp_path / "out.csv"
    emit_trace(trace, out, scenario=None, gnuplot_style=False)
    assert out.read_bytes() == _reference_bytes(_value_texts(trace))


@pytest.mark.parametrize("n_rows", [2 * 100, 5 * 100, 6 * 100 + 1, 7 * 100 + 1],
                         ids=["2 chunks", "5 chunks", "7 chunks", "8 chunks"])
@pytest.mark.parametrize("gnuplot_style", [False, True])
def test_emit_trace_in_turns_matches_row_reference(tmp_path, monkeypatch, n_rows,
                                                   gnuplot_style):
    # the turn order is the same at any chunk size; 100-row chunks keep it cheap
    monkeypatch.setattr(cli, "_EMIT_CHUNK_ROWS", 100)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = _counted_forks(monkeypatch)
    trace = _fig4a_trace(-150.0, 150.0, n_rows)
    out = tmp_path / "out.csv"
    emit_trace(trace, out, scenario=None, gnuplot_style=gnuplot_style)
    assert out.read_bytes() == _reference_bytes(_value_texts(trace), gnuplot_style)
    assert len(forks) == 1
    _assert_no_child_process()


def test_emit_trace_writes_alone_when_the_fork_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_EMIT_CHUNK_ROWS", 100)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pipes = []
    pipe = os.pipe

    def recorded_pipe():
        pipes.extend(pipe())
        return tuple(pipes[-2:])

    def failing_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "fork", failing_fork)
    trace = _fig4a_trace(-150.0, 150.0, 5 * 100)
    out = tmp_path / "out.csv"
    emit_trace(trace, out, scenario=None, gnuplot_style=False)
    assert out.read_bytes() == _reference_bytes(_value_texts(trace))
    assert len(pipes) == 4
    for fd in pipes:
        with pytest.raises(OSError):
            os.fstat(fd)
    _assert_no_child_process()


# two chunks of 5,096 and 4,101 lines: a whole block and 1,000 lines, then a
# whole block and five lines
_BLOCK_EDGE_CHUNK_ROWS = textfmt._BLOCK_LINES + 1000


@functools.cache
def _block_edge_trace():
    """The two-chunk ``LazyTrace`` above, and its ``_value_texts``."""
    n_rows = _BLOCK_EDGE_CHUNK_ROWS + textfmt._BLOCK_LINES + 5
    trace = LazyTrace(figure_preset("fig4a").model, UniformAxis(-150.0, 0.01, n_rows))
    return trace, _value_texts(trace.chunk(0, n_rows))


@pytest.mark.parametrize("fork", ["forks", "fork fails"])
@pytest.mark.parametrize("gnuplot_style", [False, True])
def test_emit_trace_writes_chunks_ending_mid_block(tmp_path, monkeypatch, fork, gnuplot_style):
    monkeypatch.setattr(cli, "_EMIT_CHUNK_ROWS", _BLOCK_EDGE_CHUNK_ROWS)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = _counted_forks(monkeypatch)
    if fork == "fork fails":
        monkeypatch.setattr(os, "fork", lambda: _raise(OSError(errno.EAGAIN, "no fork")))
    trace, texts = _block_edge_trace()
    out = tmp_path / "out.csv"
    emit_trace(trace, out, scenario=None, gnuplot_style=gnuplot_style)
    assert out.read_bytes() == _reference_bytes(texts, gnuplot_style)
    assert len(forks) == (fork == "forks")
    _assert_no_child_process()


def test_emit_trace_holds_one_block_of_text_at_a_time(tmp_path, monkeypatch):
    # one process writing three chunks and a row of the fig4a scan
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    n_rows = 3 * cli._EMIT_CHUNK_ROWS + 1
    trace = LazyTrace(figure_preset("fig4a").model,
                      UniformAxis(-150.0, 300.0 / (n_rows - 1), n_rows))
    out = tmp_path / "out.csv"

    def peak():
        tracemalloc.start()
        try:
            emit_trace(trace, out, scenario=None, gnuplot_style=False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak()   # imports textfmt and fills its exponent tables
    # 5,253,216 bytes here (numpy 2.4): the 3.3 MB canvas, one chunk's
    # columns, the formatter's arrays and one 4,096-line block. A chunk's
    # whole text is 1.1 MB: joined before the write, the call peaked at
    # 7,591,749 bytes, and laid out as one block at 8,004,120. The bound
    # allows 5% above the blocks.
    assert peak() <= 1.05 * 5_253_216
    assert len(out.read_bytes().splitlines()) == n_rows + 1


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


@pytest.mark.parametrize("mod2_phase, same", [
    ("3.141592653589793", True),
    (repr(math.nextafter(math.pi, 0.0)), False),
], ids=["the fig4b scenario", "mod2_phase one ulp lower"])
def test_main_hashes_one_scenario_once_however_it_is_reached(tmp_path, capsys, mod2_phase,
                                                              same):
    # the fig4b figure and a scan of its explicit keys build equal bytes, so
    # they share a hash; one ulp of a drive phase moves the coefficients
    def scenario_sha256(command, text):
        cfg, out = tmp_path / f"{command}.cfg", tmp_path / f"{command}.csv"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        return json.loads(Path(f"{out}.meta").read_text())["scenario_sha256"]

    explicit = (CONFIGS / "explicit_reference.cfg").read_text()
    assert "mod2_phase = 3.141592653589793 rad" in explicit
    scan = scenario_sha256("scan", explicit.replace("3.141592653589793", mod2_phase))
    assert (scan == scenario_sha256("figure", (CONFIGS / "fig4b.cfg").read_text())) is same
    capsys.readouterr()


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


@pytest.mark.parametrize("override, fwhm1", [
    ("", 8.5),
    ("filter1_fwhm = 12 GHz\n", 12.0 / math.sqrt(2.0)),
], ids=["preset-widths", "quoted-filter1"])
def test_field_convention_reads_only_the_widths_the_file_quotes(override, fwhm1):
    # a preset's own widths are intensity FWHMs, whatever the convention
    text = MINIMAL.replace("fig4b", "fig4a") + "fwhm_convention = field\n" + override
    _, scenario = parse_config(text, command="scan")
    assert (scenario.filter1.fwhm, scenario.filter2.fwhm) == (fwhm1, 8.5)


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


def test_main_fit_ends_at_a_subnormal_modulation_frequency(tmp_path, capsys):
    # the search's target width, 1e-12 w_m, underflows to 0 here; its step
    # count does not depend on the width, so it ends all the same
    data = tmp_path / "counts.csv"
    data.write_text("delta_ghz,counts\n" + "0,10\n" * 12)
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(f"schema = 1\n[fit]\ndata = {data}\n[scenario]\npreset = fig3b\n"
                   "modulation_frequency = 1e-320 GHz\n")
    assert main(["fit", "--config", str(cfg)]) == 0
    out, err = capsys.readouterr()
    assert "iterations = 49" in out.splitlines()
    assert err == ""


def test_main_validate(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["validate", "--out", str(out)]) == 0
    report = out.read_text()
    assert "PASS bessel_addition_theorem" in report
    assert report.splitlines()[-1].startswith("OK")


@pytest.mark.parametrize("override", ["b0 = 0", "filter2_alpha_sq = 0"])
def test_main_validate_without_coincidences_agrees_exactly(tmp_path, capsys, override):
    # both tiers are zero on every row: exact agreement, with no 0/0 warning
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(FIG4A_VALIDATE + override + "\n")
    assert main(["validate", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert "PASS tier_agreement rel_rms=0.000e+00" in captured.out.splitlines()
    assert captured.err == ""


def test_run_config_axis_requires_scan():
    run = RunConfig()
    with pytest.raises(ConfigurationError):
        run.delta_axis()


# the number-valued [scenario] keys, which generated overrides set, with
# their units, and the values the overrides and the [scan] keys take
_SCENARIO_UNITS = {key: unit for key, (kind, unit) in cli._SECTIONS["scenario"].items()
                   if kind == "float"}
_OVERRIDE_VALUES = (st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1e308,
                                     1e-308, 5e-324, 1e16])
                    | st.floats(min_value=0.01, max_value=100.0))
# [run] texts, valid and then any: seeds that are no integer, negative or
# beyond 64 bits; dwells with and without their unit; output paths that are
# a directory, in a missing directory, or two tokens
_RUN_TEXTS = {
    "seed": (st.integers(min_value=0, max_value=2 ** 64).map(str),
             st.sampled_from(["-1", "1.5", "1e3", "nan", "abc", str(2 ** 70)])),
    "dwell": (st.floats(min_value=0.01, max_value=100.0).map(lambda v: f"{v!r} s"),
              _OVERRIDE_VALUES.map(lambda v: f"{v!r} s") | st.sampled_from(["20", "1 ms"])),
    "out": (st.just("{tmp}/run.out"),
            st.sampled_from(["{tmp}/missing/run.out", "{tmp}", "{tmp}/a b"])),
}
# a valid axis with more rows than this is left out, so that no example
# runs long
_MAX_GENERATED_ROWS = 10_000


@st.composite
def _scan_section(draw, perturbed):
    """A [scan] section: an axis of 10 to 601 rows from -150 GHz; when
    ``perturbed``, with one to three of its values replaced by override
    values, a key at times left out and a value at times given no unit or
    a wrong one."""
    step = draw(st.sampled_from([0.5, 1.0, 3.0, 37.0]))
    axis = {"delta_min": -150.0, "delta_max": -150.0 + step * draw(st.integers(9, 600)),
            "delta_step": step}
    units = dict.fromkeys(axis, " GHz")
    if perturbed:
        for key in draw(st.lists(st.sampled_from(sorted(axis)), min_size=1, max_size=3,
                                 unique=True)):
            axis[key] = draw(_OVERRIDE_VALUES)
            units[key] = draw(st.sampled_from([" GHz", " GHz", "", " MHz"]))
        lo, hi, step = axis.values()
        if lo < hi and step > 0:
            assume(not _MAX_GENERATED_ROWS < (hi - lo) / step <= 1.1 * MAX_SCAN_ROWS)
        if draw(st.integers(0, 3)) == 0:
            del axis[draw(st.sampled_from(sorted(axis)))]
    return "[scan]\n" + "".join(f"{key} = {value!r}{units[key]}\n"
                                for key, value in axis.items())


@st.composite
def _generated_configs(draw):
    """(command, config text with ``{tmp}`` for the output directory,
    whether ``--out`` is given, as it is in three of four): a [run]
    section with some of its keys, a
    [scan] section (for validate, which reads none, at times), and for
    every command but figure a preset with up to three overrides. Each
    section is perturbed in about one example of three, and valid
    otherwise."""
    command = draw(st.sampled_from(["figure", "fit", "scan", "validate"]))

    def perturbed():
        return draw(st.integers(0, 2)) == 0

    text = "schema = 1\n"
    run = draw(st.lists(st.sampled_from(sorted(_RUN_TEXTS)), max_size=3, unique=True))
    if run or draw(st.booleans()):
        text += "[run]\n" + "".join(
            f"{key} = {draw(_RUN_TEXTS[key][perturbed()])}\n" for key in run)
    if command in ("fit", "scan") or draw(st.integers(0, 3)) == 0:
        text += draw(_scan_section(perturbed()))
    preset = draw(st.sampled_from(FIGURE_CASES))
    if command == "figure":
        text += f"[figure]\ncase = {preset}\n"
    else:
        overrides = draw(st.dictionaries(st.sampled_from(sorted(_SCENARIO_UNITS)),
                                         _OVERRIDE_VALUES, min_size=1, max_size=3)
                         if perturbed() else st.just({}))
        text += f"[scenario]\npreset = {preset}\n" + "".join(
            f"{key} = {value!r} {_SCENARIO_UNITS[key] or ''}".rstrip() + "\n"
            for key, value in overrides.items())
    return command, text, draw(st.integers(0, 3)) > 0


# every command on generated configs ends with a documented exit code, and
# stderr holds at most the clipping warning and one line, which a failing
# exit code needs: a config error, or an i/o error; validate refuses a
# [scan] section
@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_generated_configs())
def test_main_ends_cleanly_on_generated_configs(tmp_path, capsys, generated):
    command, text, out_flag = generated
    cfg = tmp_path / "generated.cfg"
    cfg.write_text(text.format(tmp=tmp_path))
    out = ["--out", str(tmp_path / "out.txt")] if out_flag else []
    code = main([command, "--config", str(cfg), *out])
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line != f"warning: {CLIPPING_MESSAGE}"]
    assert code in (0, 1, 2, 3)
    assert len(lines) == (code >= 2), err
    if command == "validate" and "[scan]" in text:
        assert code == 2


# the --seed and --dwell texts: the override values above as config text,
# integers up to 2^70, and texts that are no number or no integer
_FLAG_VALUES = (st.sampled_from(["1.5", "1e400", "2**70", "abc", ""])
                | st.integers(min_value=0, max_value=2 ** 70).map(str)
                | _OVERRIDE_VALUES.map(repr))
# a config each command runs on as it is
_FLAG_CONFIGS = {"scan": MINIMAL, "fit": MINIMAL, "validate": "schema = 1\n",
                 "figure": "schema = 1\n[figure]\ncase = fig4a\n"}


@st.composite
def _generated_argv(draw):
    """(command, argv): the command with generated --seed and --dwell texts,
    and at times an unknown command or option in place of or among them."""
    command = draw(st.sampled_from(sorted(_FLAG_CONFIGS)))
    argv = [command]
    for flag in ("--seed", "--dwell"):
        if draw(st.booleans()):
            argv += [flag, draw(_FLAG_VALUES)]
    unknown = draw(st.sampled_from([None, "command", "option"]))
    if unknown == "command":
        argv[0] = "frob"
    elif unknown == "option":
        argv.insert(draw(st.integers(min_value=1, max_value=len(argv))), "--bogus")
    return command, argv


# every command on generated flags ends as on generated configs; an unknown
# command or option is a usage error, exit 2
@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_generated_argv())
def test_main_ends_cleanly_on_generated_flags(tmp_path, capsys, generated):
    command, argv = generated
    cfg = tmp_path / "generated.cfg"
    cfg.write_text(_FLAG_CONFIGS[command])
    code = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out.txt")])
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line != f"warning: {CLIPPING_MESSAGE}"]
    assert code in (0, 1, 2, 3)
    assert len(lines) == (code >= 2), err
    if "frob" in argv or "--bogus" in argv:
        assert code == 2


# the cells of generated fit-data and waveform rows: numbers, and texts that
# are no number or not finite
_DATA_CELLS = (st.sampled_from(["0", "-0.0", "96", "1e308", "-1e308", "5e-324", "nan", "-inf",
                                "x", "1,5", ""])
               | st.floats(min_value=-200.0, max_value=200.0).map(repr))
_FIT_HEADERS = ["delta_ghz,counts", " delta_ghz,counts\t", "delta_ghz, counts", "delta,counts",
                "\ufeffdelta_ghz,counts", "# delta_ghz,counts", ""]


@st.composite
def _generated_data_files(draw):
    """(command, config text, file bytes): for ``fit`` a fit-data CSV, for
    ``scan`` a phase waveform file, each built from valid rows and then
    changed: a header variant, too few rows, a shifted time, a non-finite,
    non-numeric or extra cell, blank and comment lines, CR, LF and CR LF
    line ends mixed, and at times a byte that is not UTF-8. The config's
    ``[run] dwell`` is the default 20 s or one so large or small that the
    fit's products overflow or underflow."""
    command = draw(st.sampled_from(["fit", "scan"]))
    if command == "fit":
        n = draw(st.sampled_from([0, 1, 9, 10, 24]))
        lines = [draw(st.sampled_from(_FIT_HEADERS))]
        lines += [f"{-12.0 + j!r},{100 + j % 7}" for j in range(n)]
        sep, first = ",", 1
        text = MINIMAL + "[fit]\ndata = {data}\n"
    else:
        n = draw(st.sampled_from([0, 1, 63, 64, 100]))
        lines = [f"{j / n!r} {1.5 * math.sin(2 * math.pi * j / n)!r}" for j in range(n)]
        sep, first = " ", 0
        text = MINIMAL + "mod1_waveform = {data}\n"
    text += f"[run]\ndwell = {draw(st.sampled_from(['20', '1e-300', '1e300', '1e308']))} s\n"
    for change in draw(st.lists(st.sampled_from(["cell", "time", "extra", "blank", "comment"]),
                                max_size=3)):
        if len(lines) == first:
            break
        at = draw(st.integers(min_value=first, max_value=len(lines) - 1))
        cells = lines[at].split(sep)
        if change == "cell":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(_DATA_CELLS)
        elif change == "time":
            # a shift of about 1e-7, beyond the waveform's 1e-9 tolerance, or 1e-14
            cells[0] += draw(st.sampled_from(["1", "0000000000001"]))
        elif change == "extra":
            cells.append("1")
        lines[at] = sep.join(cells)
        if change in ("blank", "comment"):
            lines.insert(at, "  " if change == "blank" else "# note")
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    data = "".join(map(str.__add__, lines, ends)).encode("utf-8")
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(min_value=0, max_value=len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return command, text, data


# fit on generated fit-data files and scan on generated waveform files end
# as on generated configs; a file that is not UTF-8 is a configuration error
@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_generated_data_files())
def test_main_ends_cleanly_on_generated_data_files(tmp_path, capsys, generated):
    command, text, data = generated
    path = tmp_path / "generated.dat"
    path.write_bytes(data)
    cfg = tmp_path / "generated.cfg"
    cfg.write_text(text.format(data=path))
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out.txt")])
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line != f"warning: {CLIPPING_MESSAGE}"]
    assert code in (0, 1, 2, 3)
    assert len(lines) == (code >= 2), err
    if b"\xff" in data:
        assert code == 2
