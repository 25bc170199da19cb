"""Fuzzing of the checkpoint reader and of the two commands that read
checkpoints (run when hypothesis is installed).  A valid n = 16 BQCHK3 file
is mutated one edit at a time: a flipped, dropped or inserted byte, a
truncation, or one header token replaced (a ``BQCHK2`` token in the tag's
place is a format that is refused by name).  The reader either refuses the
file with ValueError or returns finite header values and the original
coefficients, and ``besov`` and ``resume`` answer with exit 0, or with exit
2, one stderr line and no output file."""

import contextlib
import io
import math
import os
import pathlib
import tempfile
from functools import lru_cache

import pytest

from bq2d import cli, solver
from bq2d.spectral import FlowParams, GridSpec

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PARAMS = FlowParams(1.0, 1.0, 0.9, 0.1, critical=True)
HEADER_TOKENS = ["nan", "inf", "-0", "1e-308", "1_6", "é", "", "BQCHK2"]


@lru_cache(maxsize=None)
def _original():
    """(bytes, state) of the file before mutation."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.chk")
        state = solver.step(solver.initial_data("random-band", 3, GridSpec(16)), PARAMS, solver.StepperConfig(0.01))
        solver.write_checkpoint(path, state, PARAMS)
        return pathlib.Path(path).read_bytes(), solver.read_checkpoint(path)[0]


def _mutate(data: bytes, mutation) -> bytes:
    kind, where, *arg = mutation
    if kind == "token":
        head, payload = data.split(b"\n", 1)
        tokens = head.split(b" ")
        tokens[where % len(tokens)] = arg[0].encode("utf-8")
        return b" ".join(tokens) + b"\n" + payload
    where %= len(data)
    if kind == "flip":
        return data[:where] + bytes([data[where] ^ arg[0]]) + data[where + 1 :]
    if kind == "drop":
        return data[:where] + data[where + 1 :]
    if kind == "insert":
        return data[:where] + bytes(arg) + data[where:]
    return data[:where]  # truncate


# positions near the start land in the header, the rest anywhere
positions = st.one_of(st.integers(0, 120), st.integers(0, 2**20))
mutations = st.one_of(
    st.tuples(st.just("flip"), positions, st.integers(1, 255)),
    st.tuples(st.just("drop"), positions),
    st.tuples(st.just("insert"), positions, st.integers(0, 255)),
    st.tuples(st.just("truncate"), positions),
    st.tuples(st.just("token"), st.integers(0, 10), st.sampled_from(HEADER_TOKENS)),
)


def _assert_contract(argv, out: str) -> None:
    """Exit 0, or exit 2 with one ``config error:`` line and no output."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG), (rc, stderr.getvalue())
    err = stderr.getvalue().splitlines()
    if rc == cli.EXIT_CONFIG:
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert not os.path.lexists(out)


# the four header values that the reader once accepted: a t that is not
# finite (resume ran to t_final=nan / inf) and a side length that is not
# finite or whose wavenumbers overflow (besov --field G raised)
@hypothesis.example(mutation=("token", 5, "nan"), field="G")
@hypothesis.example(mutation=("token", 5, "inf"), field="G")
@hypothesis.example(mutation=("token", 2, "inf"), field="G")
@hypothesis.example(mutation=("token", 2, "1e-308"), field="G")
# and a legacy tag, which is refused by name
@hypothesis.example(mutation=("token", 0, "BQCHK2"), field="theta")
@hypothesis.given(mutation=mutations, field=st.sampled_from(["theta", "omega", "G"]))
@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
def test_mutated_checkpoint_is_refused_or_read_whole(mutation, field):
    original, want = _original()
    data = _mutate(original, mutation)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.chk")
        pathlib.Path(path).write_bytes(data)
        try:
            state, params = solver.read_checkpoint(path)
        except ValueError:
            pass
        else:
            g = state.grid
            assert all(math.isfinite(v) for v in (g.side_length, g.dealias_fraction, state.t))
            assert all(math.isfinite(v) for v in (params.nu, params.kappa, params.alpha, params.beta))
            # the payload is covered by its CRC-32, so a file read whole holds the original state
            assert all(a.tobytes() == b.tobytes() for a, b in zip(state.hats, want.hats))
        besov_out = os.path.join(tmp, "besov.csv")
        _assert_contract(["besov", path, "--s", "0.5", "--field", field, "--out", besov_out], besov_out)
        resume_out = os.path.join(tmp, "resumed")
        _assert_contract(["resume", path, "--n-steps", "1", "--out-dir", resume_out], resume_out)
