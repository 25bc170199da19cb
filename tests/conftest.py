import os
import time

import pytest

import bq2d
from reference_runs import reference_run

REFERENCE_ALPHAS = (0.85, 0.9, 0.95)


@pytest.fixture(scope="session")
def reference_runs():
    """The three reference trajectories, computed once per session."""
    t0 = time.monotonic()
    runs = {alpha: reference_run(alpha) for alpha in REFERENCE_ALPHAS}
    return {"runs": runs, "build_seconds": time.monotonic() - t0}


@pytest.fixture
def cli_env():
    """Environment for a child interpreter that imports bq2d from where this
    session does (``pythonpath`` in pyproject.toml reaches only this process)."""
    src = os.path.dirname(os.path.dirname(bq2d.__file__))
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
