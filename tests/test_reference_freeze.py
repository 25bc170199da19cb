"""First-run freeze: reference-run monitor outputs are regression-guarded at
1e-10 relative tolerance.  These values verify determinism and monitor
stability, not the analytical bounds themselves (regenerate deliberately via
tests/fixtures/generate_reference.py)."""

import json
import os

import pytest

from bq2d.monitors import monitor_indices

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "reference.json")

KEYS = [
    "t_final",
    "G_l2_final",
    "G_l2_monitor_final",
    "G_lq_final",
    "G_besov_final",
    "grad_theta_linf_final",
    "theta_l2_final",
    "u_l2_final",
]


@pytest.fixture(scope="module")
def frozen():
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_reference_values_frozen(reference_runs, frozen):
    for alpha, (snapshots, records, params) in reference_runs["runs"].items():
        expect = frozen[f"alpha_{alpha}"]
        final = records[-1]
        got = {
            "t_final": final.t,
            "G_l2_final": final.G_l2,
            "G_l2_monitor_final": final.G_l2**2 + final.diss_G_accum,
            "G_lq_final": final.G_lq,
            "G_besov_final": final.G_besov,
            "grad_theta_linf_final": final.grad_theta_linf,
            "theta_l2_final": final.theta_l2,
            "u_l2_final": final.u_l2,
        }
        for key in KEYS:
            ref = expect[key]
            assert abs(got[key] - ref) <= 1e-10 * max(abs(ref), 1e-300), (alpha, key)


def test_monitor_indices_frozen(reference_runs, frozen):
    for alpha, (snapshots, records, params) in reference_runs["runs"].items():
        expect = frozen[f"alpha_{alpha}"]
        assert abs(records[-1].q - expect["q"]) <= 1e-12
        assert abs(records[-1].s - expect["s"]) <= 1e-12
        assert monitor_indices(alpha) == (expect["q"], expect["s"])  # the library's defaults, bit for bit
