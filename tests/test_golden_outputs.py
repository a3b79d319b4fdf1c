"""Byte-identical outputs of the sample configs, pinned by SHA-256 or as text.

Every trace-writing config under ``configs/`` runs through ``main()`` and
the digests of its CSV and ``.meta`` file must match the values below; so
must the stdout of the fit demo. The stdout of ``modlab validate``, by
default and with the out-of-regime config, is pinned line for line. A
refactor that claims no change in behaviour keeps these digests and lines.
Taken with Python 3.11.7 and numpy 2.4.6 on x86-64; a different numpy may
legitimately change the last digit of a printed float, so regenerate them
only together with a stated reason.
"""

import hashlib
from pathlib import Path

import pytest

from modlab.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# config name -> (command, CSV digest, .meta digest)
TRACE_DIGESTS = {
    "fig3a": ("figure",
              "7d8648f66080176d41cf9cdcd321550be8611abe90baf06b761d95954e0717da",
              "3043ec0de971cb1b5ef2f5e30f463642fff47ba522c6bfea3f518006768e8d94"),
    "fig3b": ("figure",
              "ca05fe28294eee61242e6b609deb949bdb1f3e42f24afcfed532dc105aa5c18d",
              "fe865c09886837f245ac7c32607f6120bcfa8dab456c9c12d41ad273822c4227"),
    "fig4a": ("figure",
              "41f5010586e2dc5569acd67c8dcb7e1f1a19edd56ce9c8fc559a29a4a02a2134",
              "5de9dba8f067c077cbf301913ff5303023b2e37aa02fae70174d5e49ef2dc4c3"),
    "fig4b": ("figure",
              "7b741e71eb2511fb09e9e99a2850e2e016233b96c34ffc8b8302bb25cd86a006",
              "b532f318607cb55308912404beb0565e5d7211ae4712c5ac7a72384a27c5186a"),
    # same scenario and axis as the fig4a figure
    "reference_scan": ("scan",
                       "41f5010586e2dc5569acd67c8dcb7e1f1a19edd56ce9c8fc559a29a4a02a2134",
                       "5de9dba8f067c077cbf301913ff5303023b2e37aa02fae70174d5e49ef2dc4c3"),
    # the fig4b scenario written out key by key
    "explicit_reference": ("scan",
                           "7b741e71eb2511fb09e9e99a2850e2e016233b96c34ffc8b8302bb25cd86a006",
                           "b532f318607cb55308912404beb0565e5d7211ae4712c5ac7a72384a27c5186a"),
}
FIT_DEMO_STDOUT_DIGEST = "0d1684e5a2a40785483514945e36509d8080f77e217f80507380e650dace0ba7"

# the first 14 checks do not depend on the scenario
VALIDATE_SHARED_LINES = """\
PASS bessel_recurrence_vs_series max_abs_err=3.331e-16
PASS modulator_parseval max_abs_err=3.331e-16
PASS bessel_addition_theorem max_abs_err=2.887e-14
PASS waveform_dft_agreement max_abs_err=1.323e-16
PASS unitarity_propagation max_residual=1.749e-11
PASS conjugate_symmetry max_residual=2.220e-16
PASS rk4_convergence ratios=16.3,16.2
PASS analytic_oracle_agreement max_abs_err=2.571e-11
PASS singles_closed_form rel_err=7.347e-13
PASS h2_lineshape fwhm_err=1.776e-15 peak_rel_err=1.388e-16
PASS sideband_positions max_offset=0 GHz
PASS area_conservation rel_spread=1.053e-13
PASS trace_symmetry rel_err=0.000e+00
PASS accidental_floor tail_fraction=2.107e-12
"""
# run name -> (extra argv, the last two stdout lines)
VALIDATE_TAILS = {
    "default": ([], "PASS tier_agreement rel_rms=6.558e-15\nOK 15 checks, 0 failures\n"),
    "out_of_regime": (["--config", str(CONFIGS / "out_of_regime.cfg")],
                      "SKIP tier_agreement out-of-regime (ratios=1.00,37.50)\n"
                      "OK 15 checks, 0 failures\n"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_trace_config_outputs_are_pinned(tmp_path, capsys, name):
    command, csv_digest, meta_digest = TRACE_DIGESTS[name]
    out = tmp_path / f"{name}.csv"
    assert main([command, "--config", str(CONFIGS / f"{name}.cfg"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out.read_bytes()) == csv_digest
    assert _sha256(Path(f"{out}.meta").read_bytes()) == meta_digest


def test_fit_demo_stdout_is_pinned(capsys):
    assert main(["fit", "--config", str(CONFIGS / "fit_demo.cfg")]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == FIT_DEMO_STDOUT_DIGEST


@pytest.mark.parametrize("name", sorted(VALIDATE_TAILS))
def test_validate_stdout_is_pinned(capsys, name):
    argv, tail = VALIDATE_TAILS[name]
    assert main(["validate", *argv]) == 0
    out, err = capsys.readouterr()
    assert out == VALIDATE_SHARED_LINES + tail
    assert err == ""
