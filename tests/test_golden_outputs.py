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
              "3501f3ff9d2abbb62c1dd644e0643b6a20eb3c6b130af84b092ef7e0022fe95a"),
    "fig3b": ("figure",
              "ca05fe28294eee61242e6b609deb949bdb1f3e42f24afcfed532dc105aa5c18d",
              "5265e329ab8c4e65de129056cda3aabae34d1d4edc856cc6cdf1ca498686dfc2"),
    "fig4a": ("figure",
              "41f5010586e2dc5569acd67c8dcb7e1f1a19edd56ce9c8fc559a29a4a02a2134",
              "daed18f426c6deb602fc7be43a7d6e6c29ba7b7bf3669b473c172c432662d5ff"),
    "fig4b": ("figure",
              "7b741e71eb2511fb09e9e99a2850e2e016233b96c34ffc8b8302bb25cd86a006",
              "23726ab4bc6e92c2e6246df33e20df43cf38d8557be41aa6e008385feb5aa369"),
    # same scenario and axis as the fig4a figure
    "reference_scan": ("scan",
                       "41f5010586e2dc5569acd67c8dcb7e1f1a19edd56ce9c8fc559a29a4a02a2134",
                       "daed18f426c6deb602fc7be43a7d6e6c29ba7b7bf3669b473c172c432662d5ff"),
    # the fig4b scenario written out key by key
    "explicit_reference": ("scan",
                           "7b741e71eb2511fb09e9e99a2850e2e016233b96c34ffc8b8302bb25cd86a006",
                           "23726ab4bc6e92c2e6246df33e20df43cf38d8557be41aa6e008385feb5aa369"),
}
FIT_DEMO_STDOUT_DIGEST = "a8b588ea216c6e9dd98a3268b78df4fb9551bd60f74ecb9ef6cb61368229fd21"

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
    "default": ([], "PASS tier_agreement rel_rms=6.408e-15\nOK 15 checks, 0 failures\n"),
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
