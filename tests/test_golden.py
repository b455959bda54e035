"""CLI output pinned byte for byte against files under tests/golden/.

Each case runs ``altzeta.cli.main`` in-process and compares stdout and the
exit code with a recorded run.  Any change to the summation machinery must
leave every byte in place.
"""

from pathlib import Path

import pytest

from altzeta.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (file stem, argv, exit code)
CASES = [
    ("eval_readme", ["eval", "--sigma", "1", "--t", "0", "--n", "2"], 0),
    ("residuals_readme", ["residuals", "--sigma", "0.5", "--t", "14.1", "--n-max", "1024"], 0),
    ("zeros_readme", ["zeros", "--k", "1", "--n-max", "4096"], 0),
    ("converge_readme", ["converge", "--sigma", "1", "--t", "0"], 0),
    ("sweep_readme", ["sweep", "--sigma-min", "0.1", "--sigma-max", "0.9",
                      "--sigma-step", "0.1", "--t", "0"], 0),
    ("eval_1e5", ["eval", "--sigma", "0.5", "--t", "14.1", "--n", "100000"], 0),
    ("residuals_65536", ["residuals", "--sigma", "0.5", "--t", "14.1", "--n-max", "65536"], 0),
    # The default tolerance rejects this correct ladder (rounding grows with |t|).
    ("residuals_t1e5", ["residuals", "--sigma", "0.5", "--t", "1e5", "--n-max", "1024"], 1),
    ("zeros_k-7", ["zeros", "--k", "-7", "--n-max", "32768"], 0),
    ("zeros_k16", ["zeros", "--k", "16", "--n-max", "8192"], 0),
    # s = 1: the same ladder, measured against the limit log 2.
    ("zeros_k0", ["zeros", "--k", "0", "--n-max", "4096"], 0),
    # Defect ladders: a start that is not a power of two, negative t (the
    # sine-sign branch of every node), and a phase far from the axis.
    ("converge_n10", ["converge", "--sigma", "0.3", "--t", "7", "--n", "10",
                      "--n-max", "5000"], 0),
    ("sweep_t-21.5", ["sweep", "--sigma-min", "0.05", "--sigma-max", "0.95",
                      "--sigma-step", "0.1", "--t=-21.5"], 0),
    ("converge_t3000", ["converge", "--sigma", "0.5", "--t", "3000"], 0),
    # Subnormal |s-1|: the closed-form quotient loses bits there.
    ("eval_t1e-310", ["eval", "--sigma", "1", "--t", "1e-310", "--n", "4"], 0),
]


@pytest.mark.parametrize("stem, argv, code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(capsys, stem, argv, code):
    assert main(argv) == code
    assert capsys.readouterr().out == (GOLDEN / f"{stem}.csv").read_text()


@pytest.mark.parametrize("stem, argv, code", CASES, ids=[c[0] for c in CASES])
def test_out_file_matches_golden(capsys, tmp_path, stem, argv, code):
    path = tmp_path / "out.csv"
    assert main(argv + ["--out", str(path)]) == code
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == (GOLDEN / f"{stem}.csv").read_bytes()
