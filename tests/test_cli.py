"""Command-line interface: config parsing, runs, resume determinism, and the
verification subcommands."""

import subprocess
import sys

import pytest

from bq2d.cli import (
    EXIT_ASSERTION,
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    build_config,
    main,
    parse_config_text,
)


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
    @pytest.mark.parametrize("amplitude, code", [("1e200", EXIT_CONFIG), ("1e100", EXIT_CONFIG), ("1e60", EXIT_BLOWUP)])
    def test_huge_amplitude_is_config_error_or_blowup(self, tmp_path, capsys, amplitude, code):
        # monitors that overflow on the initial state stop the run before any
        # output; a velocity no time step resolves is a blow-up at t = 0
        out = tmp_path / "huge"
        rc = run_main(["run", "--n", "16", "--amplitude", amplitude, "--t-end", "0.01", "--out-dir", str(out)])
        assert rc == code
        if code == EXIT_CONFIG:
            assert capsys.readouterr().err.startswith("config error:")
            assert not out.exists()
        else:
            assert (out / "post_mortem.csv").read_text().startswith("# blow-up at t=0.0 ")

    @pytest.mark.parametrize(
        "command, amplitude", [("run", "1e200"), ("run", "1e100"), ("inequality-suite", "1e200")]
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

    def test_version_1_checkpoint_resumes_with_the_default_fraction(self, tmp_path):
        self._run(tmp_path / "src", 2)
        v2 = tmp_path / "src" / "final.chk"
        head, payload = v2.read_bytes().split(b"\n", 1)
        tag, n, L, frac, *rest = head.split()
        assert (tag, float(frac)) == (b"BQCHK2", 2.0 / 3.0)
        v1 = tmp_path / "v1.chk"
        v1.write_bytes(b" ".join([b"BQCHK1", n, L, *rest]) + b"\n" + payload)
        for chk, out in ((v1, "from_v1"), (v2, "from_v2")):
            assert run_main(["resume", str(chk), "--n-steps", "2", "--out-dir", str(tmp_path / out)]) == EXIT_OK
        assert (tmp_path / "from_v1" / "final.chk").read_bytes() == (tmp_path / "from_v2" / "final.chk").read_bytes()


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
        zero = solver.SimState(constant_field(g, 0.0), constant_field(g, 0.0))
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
        ):
            monkeypatch.setattr(module, name, computed)
        return tmp_path

    def _assert_one_config_error(self, argv, workdir, capsys):
        before = sorted(p.name for p in workdir.iterdir())
        assert run_main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), captured.err
        assert captured.out == ""
        assert sorted(p.name for p in workdir.iterdir()) == before
        assert (workdir / "afile").read_text() == ""

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

    def test_kernel_verify_underresolved_fails(self, tmp_path):
        out = tmp_path / "kv64.csv"
        rc = run_main(["kernel-verify", "--beta", "0.5", "--n", "64", "--out", str(out)])
        assert rc == EXIT_ASSERTION
        assert "False" in out.read_text()

    def test_besov_zero_field_table(self, tmp_path, capsys):
        from bq2d.solver import SimState, write_checkpoint
        from bq2d.spectral import FlowParams, GridSpec, constant_field

        g = GridSpec(32)
        st = SimState(constant_field(g, 0.0), constant_field(g, 0.0), 0.0)
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
        from bq2d.solver import SimState, write_checkpoint
        from bq2d.spectral import FlowParams, GridSpec, constant_field

        chk = tmp_path / "zero.chk"
        g = GridSpec(32)
        write_checkpoint(chk, SimState(constant_field(g, 0.0), constant_field(g, 0.0)), FlowParams(1.0, 1.0, 0.9, 0.1))
        out = tmp_path / "never.csv"
        rc = run_main([a.format(chk=chk) for a in argv] + ["--out", str(out)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("s, r", [("1e308", "inf"), ("511.9", "inf"), ("300", "2")])
    def test_besov_overflow_is_config_error(self, tmp_path, capsys, s, r):
        # 2^(j s) past the float range, a weighted block norm past it, and an l^r sum past it
        from bq2d.solver import initial_data, write_checkpoint
        from bq2d.spectral import FlowParams, GridSpec

        chk, out = tmp_path / "band.chk", tmp_path / "never.csv"
        write_checkpoint(chk, initial_data("random-band", 0, GridSpec(32)), FlowParams(1.0, 1.0, 0.9, 0.1))
        assert run_main(["besov", str(chk), "--s", "0.5", "--r", r]) == EXIT_OK
        capsys.readouterr()
        assert run_main(["besov", str(chk), "--s", s, "--r", r, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
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
