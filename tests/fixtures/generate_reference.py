"""Regenerate the frozen reference values (first-run freeze protocol).

Run from the repository root:

    PYTHONPATH=src python3 tests/fixtures/generate_reference.py

Overwrites tests/fixtures/reference.json.  Only do this deliberately: the
committed values are the regression baseline at 1e-10 relative tolerance.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bq2d.monitors import monitor_indices  # noqa: E402
from reference_runs import reference_run  # noqa: E402


def main():
    out = {}
    for alpha in (0.85, 0.9, 0.95):
        _, records, _ = reference_run(alpha)
        q, s = monitor_indices(alpha)
        final = records[-1]
        out[f"alpha_{alpha}"] = {
            "q": q,
            "s": s,
            "t_final": final.t,
            "G_l2_final": final.G_l2,
            "G_l2_monitor_final": final.G_l2**2 + final.diss_G_accum,
            "G_lq_final": final.G_lq,
            "G_besov_final": final.G_besov,
            "grad_theta_linf_final": final.grad_theta_linf,
            "theta_l2_final": final.theta_l2,
            "u_l2_final": final.u_l2,
        }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
