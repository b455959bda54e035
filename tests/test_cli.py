"""CLI behavior: CSV shape, worked values, exit codes, determinism."""

import argparse
import csv
import io
import math
import resource
import subprocess
import sys

import pytest

import altzeta
from altzeta.cli import _build_parser, main

LN2 = math.log(2.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_capped(argv):
    # A regression in these cases loops or eats memory: run the CLI in a
    # child capped in time and address space.
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    return subprocess.run([sys.executable, "-m", "altzeta", *argv], capture_output=True,
                          text=True, timeout=60, preexec_fn=cap_memory)


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    header, data = rows[0], rows[1:]
    return header, data


class TestEval:
    def test_two_terms_at_one(self, capsys):
        code, out = run_cli(capsys, "eval", "--sigma", "1", "--t", "0", "--n", "2")
        assert code == 0
        header, data = parse_csv(out)
        row = dict(zip(header, data[0]))
        assert row["zeta_re"] == "1.5"
        assert row["eta_re"] == "0.5"
        assert row["zeta_im"] == "0"

    def test_constant_point(self, capsys):
        code, out = run_cli(capsys, "eval", "--sigma", "0", "--t", "0", "--n", "3")
        assert code == 0
        _, data = parse_csv(out)
        row = data[0]
        assert row[1] == "3" and row[3] == "1" and row[5] == "0"

    def test_defect_seventeen_digits(self, capsys):
        code, out = run_cli(capsys, "eval", "--sigma", "1", "--t", "0", "--n", "1")
        assert code == 0
        header, data = parse_csv(out)
        row = dict(zip(header, data[0]))
        assert row["defect_re"] == "0.19314718055994529"
        assert float(row["defect_re"]) == pytest.approx(LN2 - 0.5, abs=math.ulp(LN2 - 0.5))

    def test_overflow_exits_two(self, capsys):
        code = main(["eval", "--sigma", "-77", "--n", "10000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "overflows the working precision" in captured.err

    def test_rejects_malformed_sigma(self):
        proc = subprocess.run(
            [sys.executable, "-m", "altzeta", "eval", "--sigma", "abc", "--n", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr != ""


class TestResiduals:
    def test_passes_at_default_tolerance(self, capsys):
        code, out = run_cli(
            capsys, "residuals", "--sigma", "0.5", "--t", "14.1", "--n-max", "1024"
        )
        assert code == 0
        header, data = parse_csv(out)
        assert header[0] == "n"
        assert [row[0] for row in data] == ["1", "2", "4", "8", "16", "32", "64", "128", "256", "512", "1024"]

    def test_single_row_shows_eta_half(self, capsys):
        code, out = run_cli(capsys, "residuals", "--sigma", "1", "--t", "0", "--n-max", "1")
        assert code == 0
        header, data = parse_csv(out)
        row = dict(zip(header, data[0]))
        assert row["eta_re"] == "0.5"

    def test_impossible_tolerance_fails_with_exit_one(self, capsys):
        code, _ = run_cli(
            capsys, "residuals", "--sigma", "0.5", "--t", "14.1", "--n-max", "64",
            "--tol", "1e-30",
        )
        assert code == 1

    def test_tolerance_recorded_in_comment_header(self, capsys):
        _, out = run_cli(capsys, "residuals", "--sigma", "1", "--t", "0", "--n-max", "4")
        comments = [ln for ln in out.splitlines() if ln.startswith("#")]
        assert any("tol" in ln for ln in comments)


class TestZeros:
    def test_first_zero_demo(self, capsys):
        code, out = run_cli(capsys, "zeros", "--k", "1", "--n-max", "1024")
        assert code == 0
        header, data = parse_csv(out)
        ladder = [row for row in data if row[0] == "ladder"]
        mags = [float(dict(zip(header, row))["eta_abs"]) for row in ladder]
        assert all(a > b for a, b in zip(mags, mags[1:]))
        ref = [row for row in data if row[0] == "reference"]
        assert len(ref) == 1
        assert float(dict(zip(header, ref[0]))["eta_abs"]) <= 1e-10

    def test_excluded_index_exits_two(self, capsys):
        code = main(["zeros", "--k", "17", "--n-max", "64"])
        captured = capsys.readouterr()
        assert code == 2
        assert "exceeds the supported range" in captured.err
        assert captured.out == ""

    def test_conjugate_index_gives_identical_magnitudes(self, capsys):
        _, out_pos = run_cli(capsys, "zeros", "--k", "1", "--n-max", "256")
        _, out_neg = run_cli(capsys, "zeros", "--k", "-1", "--n-max", "256")
        header, data_pos = parse_csv(out_pos)
        _, data_neg = parse_csv(out_neg)
        col = header.index("eta_abs")
        assert [r[col] for r in data_pos] == [r[col] for r in data_neg]


class TestConverge:
    def test_unit_exponent_in_output(self, capsys):
        code, out = run_cli(capsys, "converge", "--sigma", "1", "--t", "0", "--n-max", "2048")
        assert code == 0
        header, data = parse_csv(out)
        fit_rows = [row for row in data if row[0] == "fit"]
        assert len(fit_rows) == 1
        beta = float(dict(zip(header, fit_rows[0]))["beta"])
        assert beta == pytest.approx(1.0, abs=0.05)

    def test_degenerate_point_exits_two(self, capsys):
        code = main(["converge", "--sigma", "0", "--t", "0", "--n-max", "256"])
        captured = capsys.readouterr()
        assert code == 2
        assert "machine-noise" in captured.err


class TestSweep:
    def test_nine_rows(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--sigma-min", "0.1", "--sigma-max", "0.9",
            "--sigma-step", "0.1", "--t", "0", "--n-max", "256",
        )
        assert code == 0
        header, data = parse_csv(out)
        assert header == ["sigma", "t", "beta", "log_c", "rms_residual"]
        assert len(data) == 9

    def test_grid_reaching_strip_boundary_exits_two(self, capsys):
        code = main([
            "sweep", "--sigma-min", "0.5", "--sigma-max", "1.0",
            "--sigma-step", "0.1", "--n-max", "256",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "strictly inside" in captured.err

    def test_grid_over_term_cap_exits_two(self):
        # 8e6 sigmas times 4096 nodes: rejected before the grid is built.
        proc = run_capped(["sweep", "--sigma-min", "0.1", "--sigma-max", "0.9",
                           "--sigma-step", "1e-7"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "exceeds the configured limit" in proc.stderr

    @pytest.mark.parametrize("flag, value", [
        ("--sigma-step", "1e-320"),  # the grid count overflows a float
        ("--sigma-max", "inf"),
        ("--sigma-step", "nan"),
        ("--sigma-min", "nan"),
        ("--sigma-step", "inf"),
    ])
    def test_bad_grid_flag_is_named(self, capsys, flag, value):
        grid = {"--sigma-min": "0.1", "--sigma-max": "0.9", "--sigma-step": "0.1", flag: value}
        code = main(["sweep", *(x for item in grid.items() for x in item)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert flag in captured.err


class TestOutput:
    def test_out_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "row.csv"
        code = main(["eval", "--sigma", "2", "--n", "4", "--out", str(path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        text = path.read_bytes()
        assert b"\r" not in text
        assert text.decode().startswith("# altzeta eval")

    def test_lf_only_line_endings(self, capsys):
        _, out = run_cli(capsys, "residuals", "--sigma", "1", "--t", "0", "--n-max", "4")
        assert "\r" not in out

    def test_repeat_invocations_byte_identical(self, tmp_path):
        argv = ["converge", "--sigma", "0.5", "--t", "14.1", "--n-max", "512"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestOnePass:
    """Each command and each library sum reads its partial sums from one
    ascending pass: one kernel evaluation, and so one log(m), per term up to
    the largest index it needs."""

    @pytest.fixture
    def log_calls(self, monkeypatch):
        # A callable reading how many times the Dirichlet passes took log(m).
        from altzeta import partial_sums

        count = 0
        log = partial_sums.log

        def counting(x):
            nonlocal count
            count += 1
            return log(x)

        monkeypatch.setattr(partial_sums, "log", counting)
        return lambda: count

    @pytest.mark.parametrize("argv, calls", [
        (["residuals", "--sigma", "0.5", "--t", "3", "--n-max", "64"], 128),
        (["eval", "--sigma", "0.5", "--t", "3", "--n", "100"], 100),
        (["zeros", "--k", "1", "--n-max", "64"], 128),
    ])
    def test_kernel_calls(self, capsys, log_calls, argv, calls):
        main(argv)
        capsys.readouterr()
        assert log_calls() == calls

    @pytest.mark.parametrize("name, n, calls", [
        ("eta_richardson", None, 8192),  # the largest rung, 4096, is eta_8192
        ("zeta_partial", 300, 300),
        ("eta_partial", 300, 300),
        ("band_sum", 300, 300),
    ])
    def test_library_kernel_calls(self, log_calls, name, n, calls):
        s = complex(0.5, 14.1)
        fn = getattr(altzeta, name)
        fn(s) if n is None else fn(n, s)
        assert log_calls() == calls

    @pytest.mark.parametrize("argv, nodes", [
        (["converge", "--sigma", "0.5", "--t", "3"], 16384),
        (["sweep", "--sigma-min", "0.1", "--sigma-max", "0.9", "--sigma-step", "0.1",
          "--t", "3"], 4096),
        (["residuals", "--sigma", "0.5", "--t", "3", "--n-max", "64"], 64),
    ])
    def test_riemann_nodes(self, capsys, monkeypatch, argv, nodes):
        # One log1p(k/N) per node of the largest rung, shared by every rung
        # and every sigma (the per-rung loop took 32752, 73584 and 127).
        from altzeta import identities

        count = 0
        log1p = identities.log1p

        def counting(x):
            nonlocal count
            count += 1
            return log1p(x)

        monkeypatch.setattr(identities, "log1p", counting)
        assert main(argv) == 0
        capsys.readouterr()
        assert count == nodes


class TestRejectedInputs:
    @pytest.mark.parametrize("argv", [
        ["residuals", "--sigma", "0.5", "--n-max", "64", "--tol", "nan"],
        ["residuals", "--sigma", "0.5", "--n-max", "64", "--tol", "inf"],
        ["residuals", "--sigma", "0.5", "--n-max", "64", "--tol=-1e-12"],
        ["zeros", "--k", "1", "--n-max", "64", "--tol", "nan"],
        ["zeros", "--k", "1", "--n-max", "64", "--tol", "-1"],
    ])
    def test_bad_tolerance_exits_two_before_summing(self, capsys, monkeypatch, argv):
        # A nan tolerance would pass every residual check; reject it with the usage errors.
        from altzeta import partial_sums

        def log(x):
            raise AssertionError("summed before rejecting --tol")

        monkeypatch.setattr(partial_sums, "log", log)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "--tol" in captured.err

    @pytest.mark.parametrize("argv", [
        ["converge", "--sigma", "0.5", "--n", "0"],
        ["sweep", "--sigma-min", "0.1", "--sigma-max", "0.9", "--sigma-step", "0.1", "--n", "0"],
        ["converge", "--sigma", "0.5", "--n", "-3"],
    ])
    def test_ladder_start_below_one_exits_two(self, argv):
        # Such a ladder never reaches --n-max.
        proc = run_capped(argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "must be positive" in proc.stderr


class TestOptions:
    """Every subcommand keeps its option strings, defaults and required flags."""

    EXPECTED = {  # option -> (default, required)
        "eval": {"--sigma": (None, True), "--t": (0.0, False), "--n": (None, True),
                 "--out": (None, False)},
        "residuals": {"--sigma": (None, True), "--t": (0.0, False), "--n-max": (None, True),
                      "--tol": (1e-12, False), "--out": (None, False)},
        "zeros": {"--k": (None, True), "--n-max": (4096, False), "--tol": (1e-10, False),
                  "--out": (None, False)},
        "converge": {"--sigma": (None, True), "--t": (0.0, False), "--n": (16, False),
                     "--n-max": (16384, False), "--out": (None, False)},
        "sweep": {"--sigma-min": (None, True), "--sigma-max": (None, True),
                  "--sigma-step": (None, True), "--t": (0.0, False), "--n": (16, False),
                  "--n-max": (4096, False), "--out": (None, False)},
    }

    def test_options_pinned(self):
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(self.EXPECTED)
        for name, command in sub.choices.items():
            found = {}
            for action in command._actions:
                if action.dest == "help":
                    continue
                (option,) = action.option_strings
                found[option] = (action.default, action.required)
            assert found == self.EXPECTED[name], name
