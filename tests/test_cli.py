"""Command-line interface: config parsing, runs, resume determinism, and the
verification subcommands."""

import csv
import dataclasses
import math
import pathlib
import subprocess
import sys
import typing
import weakref

import pytest

from bq2d import cli, monitors, solver
from bq2d.cli import (
    EXIT_ASSERTION,
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_OK,
    _FLAG_KEYS,
    ConfigError,
    RunConfig,
    _CheckTable,
    _coerce,
    build_config,
    main,
    parse_config_text,
)
from bq2d.solver import read_checkpoint
from bq2d.spectral import FlowParams, GridSpec
from states import state_of

# written by the former BQCHK2 writer: ``bq2d run --n 8 --n-steps 2 --dealias-fraction 0.5``, final.chk
BQCHK2_FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "bqchk2_n8.chk"


def run_main(args):
    return main(args)


class TestConfigParsing:
    def test_key_value_with_comments(self):
        text = """
        # run setup
        n = 32
        alpha = 0.9        # dissipation order
        t_end = 0.25
        critical = true
        init_kind = random-band
        """
        vals = parse_config_text(text)
        assert vals["n"] == 32 and vals["alpha"] == 0.9 and vals["critical"] is True

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("n = 32\nbogus = 1\n")

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError, match="'n'"):
            parse_config_text("n = twelve\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("n 32\n")

    def test_critical_relation_applied(self):
        cfg = build_config(None, {"alpha": 0.85, "n": 32})
        assert cfg.beta == 1.0 - 0.85
        assert cfg.alpha + cfg.beta == 1.0

    def test_out_of_window_monitor_rejected(self):
        with pytest.raises(ConfigError, match="q0"):
            build_config(None, {"alpha": 0.9, "monitor_q": 3.0, "n": 32})

    def test_env_var_overrides_out_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("BQ2D_OUT_DIR", str(tmp_path / "env_out"))
        cfg = build_config(None, {"n": 32})
        assert cfg.out_dir == str(tmp_path / "env_out")

    @pytest.mark.parametrize("alpha, beta", [(2.0, "-1.0"), (float("inf"), "-inf"), (1.0, "0.0")])
    def test_derived_beta_not_positive_names_the_critical_relation(self, alpha, beta):
        with pytest.raises(ConfigError) as info:
            build_config(None, {"alpha": alpha, "n": 32})
        assert str(info.value) == f"critical = true derives beta = 1 - alpha = {beta} <= 0"

    def test_none_derives_the_derived_keys(self, tmp_path):
        path = tmp_path / "none.cfg"
        path.write_text("beta = none\nmonitor_q = none\nmonitor_s = none\n")
        cfg = build_config(str(path), {"alpha": 0.9, "n": 32})
        assert cfg.beta == 1.0 - 0.9 and cfg == build_config(None, {"alpha": 0.9, "n": 32})

    @pytest.mark.parametrize("field", dataclasses.fields(RunConfig), ids=lambda f: f.name)
    def test_coerce_returns_the_annotated_type(self, field):
        kind = typing.get_type_hints(RunConfig)[field.name]
        value = _coerce(field.name, {bool: " yes ", str: " random-band "}.get(kind, " 3 "))
        assert type(value) in (typing.get_args(kind) or (kind,))
        if type(None) in typing.get_args(kind):
            assert _coerce(field.name, "None") is None
        elif kind is not str:
            with pytest.raises(ConfigError):
                _coerce(field.name, "none")

    def test_checkpoint_header_fields_are_config_keys(self):
        # cmd_resume's header is asdict(grid) | asdict(params): it must name only config keys
        keys = [f.name for f in dataclasses.fields(RunConfig)]
        for spec in (GridSpec, FlowParams):
            assert all(f.name in keys for f in dataclasses.fields(spec)), spec


class TestRunCommand:
    def test_smoke_run(self, tmp_path):
        out = tmp_path / "run"
        rc = run_main(
            [
                "run",
                "--n",
                "32",
                "--t-end",
                "0.02",
                "--dt-init",
                "0.01",
                "--diag-every",
                "1",
                "--out-dir",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert len(lines) >= 3  # header + at least two rows
        assert (out / "final.chk").exists()

    def test_initial_line_is_first_row(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_main(["run", "--n", "32", "--n-steps", "2", "--dt-init", "0.01", "--out-dir", str(out)]) == EXIT_OK
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("initial: ")
        printed = dict(item.split("=") for item in first[len("initial: ") :].split())
        header, row = ((out / "diagnostics.csv").read_text().splitlines()[i].split(",") for i in (0, 1))
        assert printed == {k: v for k, v in zip(header, row) if k in printed}
        assert set(printed) == {"theta_l2", "theta_linf", "grad_theta_linf", "u_l2"}

    def test_critical_pair_accepted(self, tmp_path):
        # alpha = 0.5, beta = 0.5 satisfies the critical relation; outside
        # (4/5, 1) the G monitors degrade to plain norms but the run proceeds
        rc = run_main(
            [
                "run",
                "--n",
                "32",
                "--alpha",
                "0.5",
                "--beta",
                "0.5",
                "--t-end",
                "0.01",
                "--out-dir",
                str(tmp_path / "crit"),
            ]
        )
        assert rc == EXIT_OK
        assert (tmp_path / "crit" / "final.chk").exists()

    def test_rejected_monitor_no_files(self, tmp_path):
        out = tmp_path / "bad"
        rc = run_main(
            ["run", "--n", "32", "--alpha", "0.9", "--monitor-q", "3.0", "--out-dir", str(out)]
        )
        assert rc == EXIT_CONFIG
        assert not out.exists()

    def test_blowup_exit_and_post_mortem(self, tmp_path):
        out = tmp_path / "boom"
        rc = run_main(
            [
                "run",
                "--n",
                "32",
                "--amplitude",
                "2e8",
                "--n-steps",
                "5",
                "--dt-init",
                "1e-6",
                "--out-dir",
                str(out),
            ]
        )
        assert rc == EXIT_BLOWUP
        post = (out / "post_mortem.csv").read_text()
        assert post.startswith("# blow-up at t=")
        assert "theta_l2" in post

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("amplitude, code", [("1e200", EXIT_CONFIG), ("1e100", EXIT_BLOWUP), ("1e60", EXIT_BLOWUP)])
    def test_huge_amplitude_is_config_error_or_blowup(self, tmp_path, capsys, amplitude, code):
        # monitors that overflow on the initial state stop the run before any
        # output; a velocity no time step resolves is a blow-up at t = 0
        out = tmp_path / "huge"
        rc = run_main(["run", "--n", "16", "--amplitude", amplitude, "--t-end", "0.01", "--out-dir", str(out)])
        assert rc == code
        err = capsys.readouterr().err
        if code == EXIT_CONFIG:
            assert err.startswith("config error:")
            assert not out.exists()
        else:
            assert err.startswith("blow-up abort:") and err.count("\n") == 1
            assert (out / "post_mortem.csv").read_text().startswith("# blow-up at t=0.0 ")

    @pytest.mark.parametrize(
        "command, amplitude", [("run", "1e200"), ("run", "1e150"), ("inequality-suite", "1e200")]
    )
    def test_overflow_config_error_is_alone_on_stderr(self, tmp_path, cli_env, command, amplitude):
        # pytest captures numpy's overflow warnings, so only a child interpreter shows the stderr a user sees
        out = tmp_path / "huge"
        argv = [command, "--n", "16", "--amplitude", amplitude, "--t-end", "0.01", "--out-dir", str(out)]
        cmd = [sys.executable, "-m", "bq2d.cli", *argv]
        r = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
        assert r.returncode == EXIT_CONFIG
        assert r.stderr.startswith("config error: the monitors overflow on the initial state:")
        assert r.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, cause",
        [
            (["run", "--side-length", "1e300", "--out-dir"], "finite quadrature weight (side_length / n)^2"),
            (["inequality-suite", "--amplitude", "1e-155", "--critical", "false", "--beta", "1", "--out"], "shock threshold"),
        ],
    )
    def test_overflow_names_its_cause(self, tmp_path, cli_env, argv, cause):
        # the run case once printed only the raw OverflowError tuple
        # (34, 'Numerical result out of range'), the suite a traceback
        out = tmp_path / "o"
        command, *flags = argv
        cmd = [sys.executable, "-m", "bq2d.cli", command, "--n", "16", *flags, str(out)]
        r = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
        assert r.returncode == EXIT_CONFIG
        assert r.stderr.startswith("config error:") and cause in r.stderr and r.stderr.count("\n") == 1, r.stderr
        assert r.stdout == "" and not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--alpha", "0.1", "--amplitude", "0"],
            ["--amplitude", "1e-300", "--critical", "false", "--beta", "0.9"],
        ],
    )
    def test_fields_whose_shock_threshold_overflows_run(self, tmp_path, cli_env, flags):
        # run records the measured spread only; the threshold C ||theta0||_inf^(-2 beta/(2 - beta)),
        # which overflows here, is inequality-suite's alone, so these runs were once refused
        out = tmp_path / "o"
        cmd = [sys.executable, "-m", "bq2d.cli", "run", "--n", "16", *flags, "--n-steps", "1", "--out-dir", str(out)]
        r = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
        assert r.returncode == EXIT_OK and r.stderr == "", r.stderr
        rows = list(csv.reader((out / "diagnostics.csv").open()))[1:]
        assert len(rows) == 2 and all(math.isfinite(float(v)) for row in rows for v in row), rows

    @pytest.mark.parametrize("n_steps, rows", [(5, 4), (4, 3)])
    def test_final_row_written_once(self, tmp_path, n_steps, rows):
        # rows at t = 0 and every second step, plus the final step when it is off the cadence
        out = tmp_path / "cadence"
        args = ["run", "--n", "32", "--n-steps", str(n_steps), "--dt-init", "0.01"]
        assert run_main(args + ["--diag-every", "2", "--out-dir", str(out)]) == EXIT_OK
        times = [float(ln.split(",")[0]) for ln in (out / "diagnostics.csv").read_text().splitlines()[1:]]
        assert len(times) == rows
        assert times == sorted(set(times))

    def test_config_file_run(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "n = 32\nalpha = 0.9\nt_end = 0.02\ndt_init = 0.01\n"
            f"out_dir = {tmp_path / 'from_file'}\n"
        )
        assert run_main(["run", "--config", str(cfgfile)]) == EXIT_OK
        assert (tmp_path / "from_file" / "diagnostics.csv").exists()


    def test_tiny_fields_keep_their_velocity_and_gradient(self, tmp_path):
        # their squares underflow; the l2 norm and the gradient sup rescale by the peak
        rows = {}
        for amplitude in ("1e-130", "1e-170"):
            out = tmp_path / amplitude
            assert run_main(["run", "--n", "16", "--amplitude", amplitude, "--n-steps", "1", "--out-dir", str(out)]) == EXIT_OK
            rows[amplitude] = list(csv.DictReader((out / "diagnostics.csv").open()))
        assert len(rows["1e-170"]) == 2
        for big, tiny in zip(rows["1e-130"], rows["1e-170"]):
            for key in ("theta_l2", "u_l2", "grad_theta_linf"):
                want = 1e-40 * float(big[key])
                assert abs(float(tiny[key]) - want) <= 1e-12 * want, key


class TestMonitorError:
    """A monitor that fails on a stepped state: exit 3, one stderr line naming
    the error, and the last good record in ``post_mortem.csv``."""

    @pytest.mark.parametrize("command", ["run", "resume"])
    @pytest.mark.parametrize(
        "monitor, error",
        [
            ("cordoba_margin", OverflowError("cordoba margin overflows")),  # in a record
            ("dissipation_rates", ValueError("non-finite dissipation rate")),  # in a step's trapezoid
        ],
        ids=["cordoba_margin", "dissipation_rates"],
    )
    def test_exit_3_with_the_last_good_record(self, tmp_path, monkeypatch, capsys, command, monitor, error):
        args = ["--n", "16", "--n-steps", "6", "--dt-init", "0.01", "--diag-every", "1"]
        argv = ["run"]
        if command == "resume":
            assert run_main(["run", *args, "--out-dir", str(tmp_path / "first")]) == EXIT_OK
            argv = ["resume", str(tmp_path / "first" / "final.chk")]
        calls = []
        original = getattr(monitors, monitor)

        def fails_on_the_fourth_call(*a, **k):  # the initial state and steps 1 and 2 pass
            calls.append(1)
            if len(calls) == 4:
                raise error
            return original(*a, **k)

        monkeypatch.setattr(monitors, monitor, fails_on_the_fourth_call)
        capsys.readouterr()
        out = tmp_path / "out"
        assert run_main([*argv, *args, "--out-dir", str(out)]) == EXIT_BLOWUP
        err = capsys.readouterr().err
        assert err.startswith("monitor abort at t=") and err.count("\n") == 1
        assert repr(error) in err and str(out / "post_mortem.csv") in err
        rows = (out / "diagnostics.csv").read_text().splitlines()
        post = (out / "post_mortem.csv").read_text().splitlines()
        assert len(rows) == 4 and post[1:] == [rows[0], rows[-1]]
        failed_at = float(post[0].removeprefix("# monitor error at t=").split(":")[0])
        assert failed_at > float(rows[-1].split(",")[0]) and f"t={failed_at!r}:" in err
        assert not (out / "final.chk").exists()


class TestResume:
    def _run(self, out, n_steps, alpha="0.9", extra=()):
        args = [
            "run",
            "--n",
            "32",
            "--alpha",
            alpha,
            "--n-steps",
            str(n_steps),
            "--dt-init",
            "0.01",
            "--out-dir",
            str(out),
        ] + list(extra)
        assert run_main(args) == EXIT_OK

    def test_split_equals_unsplit_bitwise(self, tmp_path):
        self._run(tmp_path / "full", 20)
        self._run(tmp_path / "half", 10)
        rc = run_main(
            [
                "resume",
                str(tmp_path / "half" / "final.chk"),
                "--n-steps",
                "10",
                "--dt-init",
                "0.01",
                "--out-dir",
                str(tmp_path / "resumed"),
            ]
        )
        assert rc == EXIT_OK
        full = (tmp_path / "full" / "final.chk").read_bytes()
        resumed = (tmp_path / "resumed" / "final.chk").read_bytes()
        assert full == resumed

    def test_split_equals_unsplit_bitwise_with_the_lane(self, tmp_path):
        # n = 256 runs the step's transform pairs on two threads
        assert solver.LANE_MIN_N <= 256
        common = ["--n", "256", "--seed", "1", "--dt-init", "0.01", "--diag-every", "1"]
        for out, n_steps in (("full", 4), ("again", 4), ("half", 2)):
            assert run_main(["run", *common, "--n-steps", str(n_steps), "--out-dir", str(tmp_path / out)]) == EXIT_OK
        resume = ["resume", str(tmp_path / "half" / "final.chk"), "--n-steps", "2", "--diag-every", "1"]
        assert run_main([*resume, "--out-dir", str(tmp_path / "resumed")]) == EXIT_OK
        full = (tmp_path / "full" / "final.chk").read_bytes()
        assert full == (tmp_path / "again" / "final.chk").read_bytes()
        assert full == (tmp_path / "resumed" / "final.chk").read_bytes()
        diagnostics = (tmp_path / "full" / "diagnostics.csv").read_bytes()
        assert diagnostics == (tmp_path / "again" / "diagnostics.csv").read_bytes()

    def test_header_mismatch_rejected(self, tmp_path):
        self._run(tmp_path / "src", 2)
        cfgfile = tmp_path / "other.cfg"
        cfgfile.write_text("alpha = 0.95\n")
        rc = run_main(
            [
                "resume",
                str(tmp_path / "src" / "final.chk"),
                "--config",
                str(cfgfile),
                "--out-dir",
                str(tmp_path / "never"),
            ]
        )
        assert rc == EXIT_CONFIG
        assert not (tmp_path / "never").exists()

    def test_explicit_flag_overrides_header(self, tmp_path):
        self._run(tmp_path / "src2", 2)
        rc = run_main(
            [
                "resume",
                str(tmp_path / "src2" / "final.chk"),
                "--t-end",
                "0.05",
                "--out-dir",
                str(tmp_path / "extended"),
            ]
        )
        assert rc == EXIT_OK

    def test_resume_at_t_end_is_a_no_op(self, tmp_path):
        self._run(tmp_path / "done", 3)
        src = tmp_path / "done" / "final.chk"
        out = tmp_path / "again"
        rc = run_main(["resume", str(src), "--t-end", "0.01", "--out-dir", str(out)])
        assert rc == EXIT_OK
        assert len((out / "diagnostics.csv").read_text().splitlines()) == 2  # header + t row
        assert (out / "final.chk").read_bytes() == src.read_bytes()

    def test_grid_size_change_rejected(self, tmp_path, capsys):
        self._run(tmp_path / "n32", 2)
        out = tmp_path / "n64"
        rc = run_main(["resume", str(tmp_path / "n32" / "final.chk"), "--n", "64", "--out-dir", str(out)])
        assert rc == EXIT_CONFIG
        assert "cannot change n" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        bad = tmp_path / "bad.chk"
        bad.write_bytes(b"garbage\n")
        rc = run_main(["resume", str(bad), "--out-dir", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["resume", "besov"])
    def test_trailing_byte_rejected(self, tmp_path, capsys, command):
        self._run(tmp_path / "a", 2)
        chk = tmp_path / "a" / "final.chk"
        chk.write_bytes(chk.read_bytes() + b"\n")
        out = tmp_path / "x"
        extra = ["--out-dir", str(out)] if command == "resume" else ["--s", "0.5", "--out", str(out)]
        capsys.readouterr()
        assert run_main([command, str(chk), *extra]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()


    def test_resume_keeps_the_dealias_fraction(self, tmp_path):
        common = ["--n", "32", "--dealias-fraction", "0.5"]
        assert run_main(["run", *common, "--t-end", "0.1", "--out-dir", str(tmp_path / "full")]) == EXIT_OK
        assert run_main(["run", *common, "--t-end", "0.05", "--out-dir", str(tmp_path / "half")]) == EXIT_OK
        resume = ["resume", str(tmp_path / "half" / "final.chk"), "--t-end", "0.1", "--out-dir", str(tmp_path / "res")]
        assert run_main(resume) == EXIT_OK
        assert (tmp_path / "full" / "final.chk").read_bytes() == (tmp_path / "res" / "final.chk").read_bytes()

    @pytest.mark.parametrize("tag", [b"BQCHK2", b"BQCHK1"])
    @pytest.mark.parametrize("command", ["resume", "besov"])
    def test_legacy_checkpoint_is_one_config_error_line(self, tmp_path, capsys, command, tag):
        # the committed BQCHK2 fixture, and its payload under a BQCHK1 header
        head, payload = BQCHK2_FIXTURE.read_bytes().split(b"\n", 1)
        chk = tmp_path / "a.chk"
        chk.write_bytes(b" ".join([tag, *head.split()[1:]]) + b"\n" + payload)
        out = tmp_path / "x"
        extra = ["--out-dir", str(out)] if command == "resume" else ["--s", "0.5", "--out", str(out)]
        capsys.readouterr()
        assert run_main([command, str(chk), *extra]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and f"checkpoint format {tag.decode()} " in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["resume", "besov"])
    def test_flipped_payload_byte_is_one_config_error_line(self, tmp_path, capsys, command):
        self._run(tmp_path / "a", 2)
        chk = tmp_path / "a" / "final.chk"
        data = bytearray(chk.read_bytes())
        data[-100] ^= 0x10
        chk.write_bytes(bytes(data))
        out = tmp_path / "x"
        extra = ["--out-dir", str(out)] if command == "resume" else ["--s", "0.5", "--out", str(out)]
        capsys.readouterr()
        assert run_main([command, str(chk), *extra]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "CRC-32" in err[0]
        assert not out.exists()

    def test_resume_takes_critical_from_the_header(self, tmp_path):
        # alpha + beta == 1 exactly, yet the run is not critical: the flag travels in the header
        self._run(tmp_path / "src", 2, alpha="0.9", extra=["--critical", "false", "--beta", "0.1"])
        src = tmp_path / "src" / "final.chk"
        assert src.read_bytes().split(b"\n", 1)[0].split()[4] == b"0"
        assert run_main(["resume", str(src), "--n-steps", "1", "--out-dir", str(tmp_path / "res")]) == EXIT_OK
        _, params = read_checkpoint(tmp_path / "res" / "final.chk")
        assert params.critical is False

    @pytest.mark.parametrize(
        "extra, beta, critical",
        [((), 1.0 - 0.95, b"1"), (("--critical", "false", "--beta", "0.3"), 0.3, b"0")],
        ids=["critical", "non-critical"],
    )
    def test_resume_with_a_new_alpha(self, tmp_path, extra, beta, critical):
        # a critical header's beta = 1 - 0.9 was derived, so a new alpha derives its own, as run does
        self._run(tmp_path / "src", 2, extra=extra)
        resume = ["resume", str(tmp_path / "src" / "final.chk"), "--alpha", "0.95", "--n-steps", "1"]
        assert run_main([*resume, "--out-dir", str(tmp_path / "res")]) == EXIT_OK
        final = tmp_path / "res" / "final.chk"
        assert final.read_bytes().split(b"\n", 1)[0].split()[4] == critical
        _, params = read_checkpoint(final)
        assert (params.alpha, params.beta, params.critical) == (0.95, beta, critical == b"1")

    def test_last_step_is_clipped_onto_t_end(self, tmp_path, capsys):
        # ten steps of dt = 0.01 sum to 0.09999999999999999: the tenth ends on t_end
        argv = ["run", "--n", "32", "--dealias-fraction", "0.5", "--t-end", "0.1", "--out-dir", str(tmp_path / "a")]
        assert run_main(argv) == EXIT_OK
        assert "steps=10 t_final=0.1\n" in capsys.readouterr().out


class TestHeaderValues:
    """A checkpoint header value that is not finite, or a side length whose
    wavenumbers or quadrature weight overflow, is refused on read: one config
    error line, exit 2."""

    @pytest.mark.parametrize("command", ["resume", "besov"])
    @pytest.mark.parametrize("index, token", [(5, b"nan"), (5, b"inf"), (2, b"inf"), (2, b"1e-308"), (2, b"1e300")])
    def test_is_one_config_error_line(self, tmp_path, capsys, command, index, token):
        # index 5 is t, index 2 the side length; resume ran to t_final=nan or inf,
        # and besov --field G raised on a side length of inf or 1e-308
        assert run_main(["run", "--n", "16", "--n-steps", "2", "--out-dir", str(tmp_path / "a")]) == EXIT_OK
        head, payload = (tmp_path / "a" / "final.chk").read_bytes().split(b"\n", 1)
        tokens = head.split()
        tokens[index] = token
        chk = tmp_path / "edited.chk"
        chk.write_bytes(b" ".join(tokens) + b"\n" + payload)
        out = tmp_path / "x"
        if command == "resume":
            argv = ["resume", str(chk), "--n-steps", "2", "--out-dir", str(out)]
        else:
            argv = ["besov", str(chk), "--s", "0.5", "--field", "G", "--out", str(out)]
        capsys.readouterr()
        assert run_main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), captured.err
        if token == b"1e300":  # (L/n)^2 overflows, which once raised a bare OverflowError in besov
            assert "quadrature weight" in err[0], err
        assert captured.out == ""
        assert not out.exists()


class TestFlagsParseLikeTheFile:
    """Every config flag goes through the config file's parser."""

    def test_n_steps_none_flag_runs_like_the_file(self, tmp_path, capsys):
        common = ["--n", "32", "--t-end", "0.03"]
        none_file, three_file = tmp_path / "none.cfg", tmp_path / "three.cfg"
        none_file.write_text("n_steps = none\n")
        three_file.write_text("n_steps = 3\n")
        runs = {
            "file": ["--config", str(none_file)],
            "flag": ["--n-steps", "none"],
            "flag_over_file": ["--config", str(three_file), "--n-steps", "None"],
        }
        outputs = {}
        for name, extra in runs.items():
            capsys.readouterr()
            assert run_main(["run", *common, *extra, "--out-dir", str(tmp_path / name)]) == EXIT_OK
            files = [(tmp_path / name / f).read_bytes() for f in ("diagnostics.csv", "final.chk")]
            outputs[name] = (capsys.readouterr().out, *files)
        assert outputs["flag"] == outputs["file"] == outputs["flag_over_file"]

    @pytest.mark.parametrize(
        "flags", [["--n", "abc"], ["--alpha", "x"], ["--seed", "1.5"], ["--seed", "none"], ["--critical", "maybe"]]
    )
    def test_bad_flag_value_is_one_config_error_line(self, tmp_path, capsys, flags):
        out = tmp_path / "never"
        assert run_main(["run", "--n", "32", *flags, "--out-dir", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not out.exists()


class TestCommandLineContract:
    """A bad command line or an output path that cannot be created is one
    ``config error:`` line and exit 2, with nothing computed or written."""

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        from bq2d import kernels, solver
        from bq2d.spectral import FlowParams, GridSpec, constant_field

        g = GridSpec(32)
        zero = state_of(constant_field(g, 0.0), constant_field(g, 0.0))
        solver.write_checkpoint(tmp_path / "CHK", zero, FlowParams(1.0, 1.0, 0.9, 0.1))
        (tmp_path / "afile").write_text("")
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("BQ2D_OUT_DIR", raising=False)

        def computed(*args, **kwargs):
            raise AssertionError("computation started before validation ended")

        for module, name in (
            (solver, "initial_data"),
            (solver, "run"),
            (solver, "write_checkpoint"),
            (kernels, "quadrature_errors"),
            (kernels, "calibrate_C_beta"),
        ):
            monkeypatch.setattr(module, name, computed)
        return tmp_path

    def _assert_one_config_error(self, argv, workdir, capsys) -> str:
        """The one ``config error:`` line of ``argv``."""
        before = sorted(p.name for p in workdir.iterdir())
        assert run_main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), captured.err
        assert captured.out == ""
        assert sorted(p.name for p in workdir.iterdir()) == before
        assert (workdir / "afile").read_text() == ""
        return err[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["kernel-verify", "--beta", "0.5", "--n", "abc"],
            ["besov", "CHK", "--s", "abc"],
            ["run", "--n", "16", "--n-steps"],
            ["besov", "CHK"],
            ["besov", "CHK", "--s", "0.5", "--field", "u"],
            ["run", "--no-such-flag", "1"],
            [],
        ],
    )
    def test_parser_error_is_one_config_error_line(self, workdir, capsys, argv):
        self._assert_one_config_error(argv, workdir, capsys)

    @pytest.mark.parametrize("flag, value", [("--out", "zz"), ("--dt", "0.001")])
    def test_prefix_of_a_flag_is_no_alias(self, workdir, capsys, flag, value):
        # --out would be --out-dir and --dt would be --dt-init if argparse matched prefixes
        self._assert_one_config_error(["run", "--n", "16", "--n-steps", "1", flag, value], workdir, capsys)
        assert not (workdir / "zz").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--n", "16", "--out-dir", "afile/sub"],
            ["run", "--n", "16", "--out-dir", "afile"],
            ["run", "--n", "16", "--out-dir", ""],
            ["resume", "CHK", "--out-dir", "afile/sub"],
            ["besov", "CHK", "--s", "0.5", "--out", "afile/x.csv"],
            ["besov", "CHK", "--s", "0.5", "--out", "missing/x.csv"],
            ["kernel-verify", "--beta", "0.5", "--n", "16", "--out", "afile/x.csv"],
            ["kernel-verify", "--beta", "0.5", "--n", "16", "--out", "."],
            ["inequality-suite", "--n", "16", "--out", "afile/x.csv"],
        ],
    )
    def test_unwritable_output_is_one_config_error_line(self, workdir, capsys, argv):
        self._assert_one_config_error(argv, workdir, capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--n", "16", "--oss-L", "-1"],
            ["run", "--n", "16", "--oss-delta-c", "0"],
            ["run", "--n", "16", "--alpha", "2"],
            ["run", "--n", "16", "--alpha", "inf"],
        ],
    )
    def test_refused_value_is_one_config_error_line(self, workdir, capsys, argv):
        self._assert_one_config_error(argv, workdir, capsys)

    @pytest.mark.parametrize(
        "flags, message",
        [
            # a negative derived key is a value, refused by its own range check
            (["--beta", "-0.5"], "beta must lie in (0, 1]"),
            (["--critical", "false", "--beta", "-0.5"], "beta must lie in (0, 1]"),
            (["--monitor-q", "-5"], "q=-5.0 outside the L^q window"),
            (["--monitor-s", "-3"], "monitor_s=-3.0 violates 0 < s"),
            # negative numbers in exponent form are values too
            (["--oss-L", "-1e-3"], "oss_L must lie in (0, side_length / 2]"),
            (["--monitor-q", "-1e300"], "q=-1e+300 outside the L^q window"),
            (["--n", "-1e3"], "key 'n': expected an integer, got '-1e3'"),
        ],
    )
    def test_negative_value_gets_its_own_message(self, workdir, capsys, flags, message):
        err = self._assert_one_config_error(["run", "--n", "16", "--n-steps", "1", *flags], workdir, capsys)
        assert err.startswith(f"config error: {message}"), err

    _CONFIG_NUMBERS = ["--" + key.replace("_", "-") for key in _FLAG_KEYS if type(_coerce(key, "1")) in (int, float)]

    @pytest.mark.parametrize("value", ["-1e300", "-2.5E-3", "-.5e+1", "-inf"])
    @pytest.mark.parametrize(
        "argv",
        [["run", flag] for flag in _CONFIG_NUMBERS]
        + [["resume", "CHK", flag] for flag in _CONFIG_NUMBERS]
        + [["inequality-suite", flag] for flag in _CONFIG_NUMBERS]
        + [["kernel-verify", "--n", "16", "--beta"], ["kernel-verify", "--beta", "0.5", "--n"]]
        + [["besov", "CHK", "--s"], ["besov", "CHK", "--s", "0.5", "--p"], ["besov", "CHK", "--s", "0.5", "--r"]],
        ids=" ".join,
    )
    def test_negative_number_in_exponent_form_is_a_value(self, workdir, capsys, monkeypatch, argv, value):
        # argparse by itself reads only -N and -N.N as numbers: the rest were "expected one argument"
        from bq2d import cli

        seen = {}
        for name in ("cmd_run", "cmd_resume", "cmd_kernel_verify", "cmd_inequality_suite", "cmd_besov"):
            monkeypatch.setattr(cli, name, lambda args: seen.update(vars(args)) or EXIT_OK)
        key = argv[-1].removeprefix("--").replace("-", "_")
        if argv[-1] == "--n" and argv[0] == "kernel-verify":  # an int flag: the value reaches int()
            err = self._assert_one_config_error([*argv, value], workdir, capsys)
            assert err == f"config error: argument --n: invalid int value: '{value}'"
        else:
            assert run_main([*argv, value]) == EXIT_OK
            # a config flag's raw text goes to _coerce; the other commands' flags are typed float
            assert seen[key] == (float(value) if argv[0] in ("kernel-verify", "besov") else value)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--critical", "false"], "beta must be given when critical = false"),
            (["--init-kind", "bogus"], "unknown init_kind 'bogus'"),
            (["--diag-every", "0"], "diag_every must be >= 1"),
            (["--checkpoint-every", "-1"], "checkpoint_every must be >= 0"),
            (["--n-steps", "0"], "n_steps must be >= 1"),
            # outside the index window (alpha <= 4/5) the monitors need only q >= 1 and s > 0
            (["--alpha", "0.5", "--monitor-q", "0.5"], "monitor indices must satisfy q >= 1 and s > 0"),
            (["--config", "missing.cfg"], "cannot read config file"),
        ],
    )
    def test_refused_run_config_gets_its_own_message(self, workdir, capsys, flags, message):
        err = self._assert_one_config_error(["run", "--n", "16", *flags], workdir, capsys)
        assert err.startswith(f"config error: {message}"), err

    # numpy refuses arrays this large when they are requested: nothing is allocated
    @pytest.mark.parametrize("n", [2**31, 2**40])
    @pytest.mark.parametrize(
        "command", [["run"], ["inequality-suite"], ["kernel-verify", "--beta", "0.5"]], ids=lambda c: c[0]
    )
    def test_unaddressable_n_is_one_config_error_line(self, workdir, capsys, command, n):
        self._assert_one_config_error([*command, "--n", str(n)], workdir, capsys)

    @pytest.mark.parametrize("message", ["Unable to allocate 6.94 EiB for an array", ""])
    @pytest.mark.parametrize(
        "argv", [["run", "--n", "16", "--out-dir", "out"], ["kernel-verify", "--beta", "0.5", "--out", "kv.csv"]]
    )
    def test_memory_error_is_one_config_error_line(self, workdir, capsys, monkeypatch, argv, message):
        from bq2d import kernels

        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(solver, "initial_data", out_of_memory)
        monkeypatch.setattr(kernels, "quadrature_errors", out_of_memory)
        self._assert_one_config_error(argv, workdir, capsys)


class TestDeterminism:
    def test_repeated_runs_bitwise_identical_csv(self, tmp_path, cli_env):
        # separate interpreter processes: no in-process state can leak
        cmd = [
            sys.executable,
            "-m",
            "bq2d.cli",
            "run",
            "--n",
            "32",
            "--n-steps",
            "10",
            "--dt-init",
            "0.01",
            "--diag-every",
            "2",
        ]
        for name in ("a", "b"):
            r = subprocess.run(
                cmd + ["--out-dir", str(tmp_path / name)], capture_output=True, text=True, env=cli_env
            )
            assert r.returncode == 0, r.stderr
        assert (tmp_path / "a" / "diagnostics.csv").read_bytes() == (
            tmp_path / "b" / "diagnostics.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "final.chk").read_bytes() == (
            tmp_path / "b" / "final.chk"
        ).read_bytes()


class TestVerificationCommands:
    def test_kernel_verify_default_resolution(self, tmp_path):
        out = tmp_path / "kv.csv"
        rc = run_main(["kernel-verify", "--beta", "0.5", "--out", str(out)])
        assert rc == EXIT_OK
        text = out.read_text()
        assert "v_residual_n" in text and "C_star" in text

    @pytest.mark.parametrize("floor", [False, True])
    def test_check_passes_on_its_threshold_and_fails_nan(self, tmp_path, floor):
        checks = _CheckTable()
        checks.add("at_threshold", 1.0, 1.0, floor=floor)
        checks.add("past_threshold", 2.0 if floor else 0.5, 1.0, floor=floor)
        assert checks.ok
        checks.add("wrong_side", 0.5 if floor else 2.0, 1.0, floor=floor)
        checks.add("nan", float("nan"), 1.0, floor=floor)
        assert [row[3] for row in checks.rows[1:]] == [True, True, False, False]
        assert checks.emit(str(tmp_path / "t.csv")) == EXIT_ASSERTION
        assert (tmp_path / "t.csv").read_text().splitlines()[-1] == "nan,nan,1.0,False"

    def test_kernel_verify_underresolved_fails(self, tmp_path):
        out = tmp_path / "kv64.csv"
        rc = run_main(["kernel-verify", "--beta", "0.5", "--n", "64", "--out", str(out)])
        assert rc == EXIT_ASSERTION
        assert "False" in out.read_text()

    def test_besov_zero_field_table(self, tmp_path, capsys):
        from bq2d.solver import write_checkpoint
        from bq2d.spectral import FlowParams, GridSpec, constant_field

        g = GridSpec(32)
        st = state_of(constant_field(g, 0.0), constant_field(g, 0.0))
        path = tmp_path / "zero.chk"
        write_checkpoint(path, st, FlowParams(1.0, 1.0, 0.9, 0.1))
        rc = run_main(["besov", str(path), "--s", "0.5"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "j,weighted_block_norm"
        body = [ln.split(",") for ln in lines[1:]]
        assert all(float(parts[1]) == 0.0 for parts in body)

    @pytest.mark.parametrize(
        "argv",
        [
            ["kernel-verify", "--beta", "1.5"],
            ["besov", "{chk}", "--s", "0.5", "--p", "0.5"],
            ["besov", "{chk}", "--s", "0.5", "--r", "0"],
            ["besov", "{chk}", "--s", "nan"],
            ["besov", "{chk}", "--s", "inf"],
            ["run", "--n", "32", "--t-end", "nan"],
            ["run", "--n", "32", "--dt-init", "nan"],
            ["run", "--n", "32", "--oss-L", "nan"],
            ["run", "--n", "32", "--amplitude", "inf"],
            ["run", "--n", "32", "--dt-init", "1e-13"],
            ["run", "--n", "32", "--seed", "-1"],
            ["inequality-suite", "--n", "32", "--seed", "-1"],
            ["run", "--n", "16", "--side-length", "1e-12", "--oss-L", "1e-13", "--t-end", "0.01"],
        ],
    )
    def test_bad_input_is_config_error(self, tmp_path, capsys, argv):
        from bq2d.solver import write_checkpoint
        from bq2d.spectral import FlowParams, GridSpec, constant_field

        chk = tmp_path / "zero.chk"
        g = GridSpec(32)
        write_checkpoint(chk, state_of(constant_field(g, 0.0), constant_field(g, 0.0)), FlowParams(1.0, 1.0, 0.9, 0.1))
        out = tmp_path / "never"
        out_flag = "--out-dir" if argv[0] in ("run", "resume") else "--out"
        rc = run_main([a.format(chk=chk) for a in argv] + [out_flag, str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "unrecognized arguments" not in err
        assert not out.exists()

    @pytest.mark.parametrize("s, r", [("1e308", "inf"), ("-1e300", "inf"), ("511.9", "inf"), ("300", "2")])
    def test_besov_overflow_is_config_error(self, tmp_path, capsys, s, r):
        # 2^(j s) past the float range (at j = -1 for s < 0), a weighted block norm past it, and an l^r sum past it
        from bq2d.solver import initial_data, write_checkpoint
        from bq2d.spectral import FlowParams, GridSpec

        chk, out = tmp_path / "band.chk", tmp_path / "never.csv"
        write_checkpoint(chk, initial_data("random-band", 0, GridSpec(32)), FlowParams(1.0, 1.0, 0.9, 0.1))
        assert run_main(["besov", str(chk), "--s", "0.5", "--r", r]) == EXIT_OK
        capsys.readouterr()
        assert run_main(["besov", str(chk), "--s", s, "--r", r, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "overflows" in err
        assert not out.exists()

    def test_inequality_suite_passes(self, tmp_path):
        out = tmp_path / "iq.csv"
        rc = run_main(
            [
                "inequality-suite",
                "--n",
                "32",
                "--t-end",
                "0.05",
                "--dt-init",
                "0.01",
                "--out-dir",
                str(tmp_path / "iqrun"),
                "--out",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        assert all(r[-1] == "True" for r in rows)


    def test_kernel_calibration_failure_is_exit_4(self, tmp_path, capsys, monkeypatch):
        from bq2d import kernels

        def uncalibrated(*args, **kwargs):
            raise kernels.CalibrationError("no C_beta")

        monkeypatch.setattr(kernels, "quadrature_errors", uncalibrated)
        out = tmp_path / "kv.csv"
        assert run_main(["kernel-verify", "--beta", "0.5", "--n", "16", "--out", str(out)]) == EXIT_ASSERTION
        assert capsys.readouterr().err.splitlines() == ["assertion failure: no C_beta"]
        assert not out.exists()

    def test_2n_calibration_failure_is_exit_4(self, tmp_path, capsys, monkeypatch):
        # the n pass runs for real; only the 2n pass, the fit alone, fails
        from bq2d import kernels

        def uncalibrated(*args, **kwargs):
            raise kernels.CalibrationError("no C_beta at 2n")

        monkeypatch.setattr(kernels, "calibrate_C_beta", uncalibrated)
        out = tmp_path / "kv.csv"
        assert run_main(["kernel-verify", "--beta", "0.5", "--n", "32", "--out", str(out)]) == EXIT_ASSERTION
        assert capsys.readouterr().err.splitlines() == ["assertion failure: no C_beta at 2n"]
        assert not out.exists()

    def test_kernel_verify_transform_census(self, monkeypatch, tmp_path):
        # the 2n pass runs the calibration fit alone: 5 transforms on its
        # 4n-row padded grid and 53 real transforms in all.  Two full
        # quadrature_errors passes made 10 and 64; the 2n symmetric gradient
        # took the other 5 padded ones, and d1 theta (2) and its four
        # gradient inverses on the 2n grid.
        import numpy as np

        rows = []
        for name in ("rfft2", "irfft2"):
            transform = getattr(np.fft, name)

            def counted(a, *args, _transform=transform, **kwargs):
                rows.append(a.shape[0])
                return _transform(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        run_main(["kernel-verify", "--beta", "0.5", "--n", "32", "--out", str(tmp_path / "kv.csv")])
        assert rows.count(128) == 5
        assert len(rows) == 53

    def test_kernel_verify_table_equals_the_two_quadrature_errors_table(self, tmp_path):
        # oracle: the table as two full quadrature_errors passes, n and 2n, build it
        from bq2d import kernels

        out = tmp_path / "kv.csv"
        run_main(["kernel-verify", "--beta", "0.5", "--n", "32", "--out", str(out)])
        got = list(csv.reader(out.read_text().splitlines()))
        res, res2 = (kernels.quadrature_errors(0.5, n) for n in (32, 64))
        want = _CheckTable()
        want.add("v_residual_n", res["v_residual"], 1e-3)
        want.add("symgrad_error_n", res["symgrad_error"], 1e-2)
        want.add("v_residual_2n", res2["v_residual"], 1e-3)
        want.add("v_refinement_ratio", res["v_residual"] / max(res2["v_residual"], 1e-300), 2.0, floor=True)
        want.add("C_star_drift", abs(res2["C_star"] / res["C_star"] - 1.0), 0.01)
        want.rows.append(["C_star", repr(float(res["C_star"])), "", ""])
        assert [row[0] for row in got] == [
            "check",
            "sigma_circle_mean",
            *(row[0] for row in want.rows[1:-1]),
            "split_partition_identity",
            "C_star",
        ]
        assert got[2:7] + got[-1:] == [[str(cell) for cell in row] for row in want.rows[1:]]

    def test_inequality_suite_blowup_is_exit_3(self, tmp_path, capsys):
        out = tmp_path / "iq.csv"
        argv = ["inequality-suite", "--n", "32", "--amplitude", "2e8", "--n-steps", "3", "--out", str(out)]
        assert run_main(argv) == EXIT_BLOWUP
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("blow-up abort:"), err
        assert not out.exists()

    @pytest.mark.parametrize("span", [["--n-steps", "60"], ["--t-end", "0.6"]], ids=["n_steps", "t_end"])
    def test_inequality_suite_keeps_only_the_states_it_reads(self, tmp_path, monkeypatch, span):
        # its picks (at most 5), the last state and the one just yielded, not all 60
        refs, counts = [], []  # SimState is unhashable, so weak references in a list, not a WeakSet
        run = solver.run

        def counted(*args, **kwargs):
            for st in run(*args, **kwargs):
                refs.append(weakref.ref(st))
                counts.append(sum(r() is not None for r in refs))
                yield st

        monkeypatch.setattr(solver, "run", counted)
        argv = ["inequality-suite", "--n", "16", "--dt-init", "0.01", *span, "--out", str(tmp_path / "iq.csv")]
        assert run_main(argv) == EXIT_OK
        assert max(counts) <= 7
        assert len(counts) == (60 if span[0] == "--n-steps" else 120)  # to t_end, a counting pass first

    def test_besov_omega_table(self, tmp_path):
        from bq2d.lp import BesovIndex, block_norms
        from bq2d.solver import initial_data, write_checkpoint

        chk, out = tmp_path / "band.chk", tmp_path / "omega.csv"
        state = initial_data("random-band", 0, GridSpec(32))
        write_checkpoint(chk, state, FlowParams(1.0, 1.0, 0.9, 0.1))
        assert run_main(["besov", str(chk), "--s", "0.5", "--field", "omega", "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:-1]]
        want = block_norms(state.omega_hat, BesovIndex(0.5, 2.0, math.inf))
        assert rows == [[str(j), repr(float(v))] for j, v in want]

    def test_besov_of_huge_coefficients_is_one_config_error_line(self, tmp_path, capsys):
        # a finite state whose block norms overflow: the overflow is reported
        # once, with no numpy warning ahead of the config error line
        from bq2d.solver import SimState, initial_data, write_checkpoint

        chk, out = tmp_path / "huge.chk", tmp_path / "never.csv"
        state = initial_data("random-band", 0, GridSpec(16))
        write_checkpoint(chk, SimState(state.grid, tuple(1e300 * c for c in state.hats)), FlowParams(1.0, 1.0, 0.9, 0.1))
        assert run_main(["besov", str(chk), "--s", "0.5", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "overflows" in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("side_length", [1e-300, 1e-200])
    def test_besov_of_a_tiny_torus_is_one_config_error_line(self, tmp_path, capsys, side_length):
        # (L/n)^2 underflows to 0, so every block norm would read 0: refused, not an all-zero table
        from bq2d.solver import SimState, initial_data, write_checkpoint

        chk, out = tmp_path / "tiny.chk", tmp_path / "never.csv"
        hats = initial_data("random-band", 0, GridSpec(16)).hats
        write_checkpoint(chk, SimState(GridSpec(16, side_length=side_length), hats), FlowParams(1.0, 1.0, 0.9, 0.1))
        for field in ("theta", "G"):
            assert run_main(["besov", str(chk), "--s", "0.5", "--field", field, "--out", str(out)]) == EXIT_CONFIG
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error:") and "underflows to 0" in err[0], err
            assert not out.exists()
