"""Checks one request's output against mpmath reference values.

A request fails if it raised, printed a non-finite number, exited non-zero
(every generated input is one where the mathematics says the check passes),
or printed a headline value that disagrees with the reference: eta_re/eta_im,
zeta_re/zeta_im, defect_*, integral_*, the oracle magnitudes of ``zeros``,
and the decay fits.  Columns are read by header name, so added columns are
ignored.

Partial sums and defects must agree within c*u*(1 + |t| log n) * abs_sum
(reference.Prefix.tol).  The ``zeros`` reference row must agree with
mpmath.altzeta within the accelerator target the CLI certifies, and the
Richardson oracle within the CLI's zero tolerance.  A fit must agree with
the same least-squares fit of the reference defects within the change that
the defect tolerance can cause: for relative log errors at most e, the
slope moves at most e*sum|w_i|, the intercept e*sum|1/k - xbar*w_i| and the
rms residual e, plus ``FIT_SLACK`` for the fit's own rounding.
"""

from __future__ import annotations

import csv
import io
import math
import statistics

import reference

ZERO_TOL = 1e-10  # altzeta zeros --tol default
ZERO_TARGET = 1e-11  # accelerator target the CLI derives from it
FIT_SLACK = 1e-12
LADDER_START = 16  # CLI default ladder start of zeros, converge and sweep
CONVERGE_N_MAX = 16384
SWEEP_N_MAX = 4096


class Mismatch(Exception):
    """A printed value disagrees with the reference."""


def _table(stdout: str) -> list[dict[str, str]]:
    lines = [line for line in stdout.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _number(row: dict[str, str], key: str) -> float:
    return float(row[key])


def _pair(row: dict[str, str], prefix: str) -> complex:
    return complex(_number(row, prefix + "_re"), _number(row, prefix + "_im"))


def _point(argv) -> complex:
    return complex(float(_option(argv, "--sigma")), float(_option(argv, "--t", "0")))


def _option(argv, name: str, default=None) -> str:
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    if default is None:
        raise KeyError(name)
    return default


def _doubling(start: int, n_max: int) -> list[int]:
    ladder, n = [], min(start, n_max)
    while n <= n_max:
        ladder.append(n)
        n *= 2
    return ladder


def _finite(cell: str | None) -> bool:
    """False only for a cell that reads as a NaN or an infinity."""
    try:
        return math.isfinite(float(cell))
    except (TypeError, ValueError):
        return True


def _reference_fit(ref: "reference.Prefix", ladder: list[int]):
    """OLS fit of the reference log|d_n| and the largest relative defect tolerance."""
    xs, ys, rel = [], [], 0.0
    for n in ladder:
        d = abs(complex(ref.defect(n)))
        tol = ref.defect_tol(n)
        xs.append(math.log(n))
        ys.append(math.log(d))
        rel = max(rel, tol / d)
    slope, intercept = statistics.linear_regression(xs, ys)
    rms = math.sqrt(math.fsum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys)) / len(xs))
    e = rel / (1.0 - rel)  # bound on the log error of each point
    xbar = math.fsum(xs) / len(xs)
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    weights = [(x - xbar) / sxx for x in xs]
    beta_tol = e * math.fsum(abs(w) for w in weights) + FIT_SLACK
    logc_tol = e * math.fsum(abs(1.0 / len(xs) - xbar * w) for w in weights) + FIT_SLACK
    return (-slope, beta_tol), (intercept, logc_tol), (rms, e + FIT_SLACK)


class Checker:
    """Checks request results; remembers the largest share of a tolerance used."""

    def __init__(self) -> None:
        self.worst_tol_use = 0.0
        self.worst_what = ""

    def check(self, result: dict) -> tuple[str | None, str | None]:
        """(failure reason, value mismatch) of one request; (None, None) if it passed.

        The second item is set only when printed output disagrees with the
        reference, which makes the run's ``correct`` false.  A non-zero exit
        with valid values is a failure but not a mismatch.
        """
        if result["error"] is not None:
            return f"raised {result['error']}", None
        if result["rc"] != 0 and not result["stdout"]:
            return f"exit code {result['rc']}", None
        argv = result["argv"]
        try:
            rows = _table(result["stdout"])
            for row in rows:
                for key, cell in row.items():
                    if not _finite(cell):
                        return f"non-finite {key}={cell}", None
            getattr(self, "_" + argv[0])(argv, rows, result)
        except Mismatch as exc:
            return f"mismatch: {exc}", str(exc)
        except (KeyError, ValueError) as exc:
            return f"unreadable output ({type(exc).__name__}: {exc})", f"unreadable output: {exc}"
        if result["rc"] != 0:
            return f"exit code {result['rc']}", None
        return None, None

    def _agree(self, what: str, got: complex, want, tol: float) -> None:
        err = abs(got - complex(want))
        if err / tol > self.worst_tol_use:
            self.worst_tol_use, self.worst_what = err / tol, what
        if not err <= tol:
            raise Mismatch(f"{what}: got {got!r}, reference {complex(want)!r}, "
                           f"|diff| {err:.3e} > {tol:.3e}")

    def _eval(self, argv, rows, result) -> None:
        s = _point(argv)
        n = int(_option(argv, "--n"))
        ref = reference.Prefix(s, reference.marks_for_eta([n]) + reference.marks_for_defect([n]))
        (row,) = rows
        tol = ref.tol(n, ref.abs_sum(n))
        self._agree("zeta", _pair(row, "zeta"), ref.zeta(n), tol)
        self._agree("eta", _pair(row, "eta"), ref.eta(n), tol)
        self._agree("defect", _pair(row, "defect"), ref.defect(n), ref.defect_tol(n))
        self._agree("integral", _pair(row, "integral"), ref.integral(), ref.integral_tol())

    def _residuals(self, argv, rows, result) -> None:
        s = _point(argv)
        ladder = _doubling(1, int(_option(argv, "--n-max")))
        if [int(row["n"]) for row in rows] != ladder:
            raise Mismatch(f"residuals ladder {[row['n'] for row in rows]} != {ladder}")
        ref = reference.Prefix(s, reference.marks_for_eta([2 * n for n in ladder]))
        for n, row in zip(ladder, rows):
            self._agree(f"eta_2n at n={n}", _pair(row, "eta"), ref.eta(2 * n),
                        ref.tol(2 * n, ref.abs_sum(2 * n)))

    def _zeros(self, argv, rows, result) -> None:
        s = reference.zero_point(int(_option(argv, "--k")))
        ladder = _doubling(LADDER_START, int(_option(argv, "--n-max", "4096")))
        ladder_rows = [row for row in rows if row["stage"] == "ladder"]
        if [int(row["n"]) for row in ladder_rows] != ladder:
            raise Mismatch(f"zeros ladder {[row['n'] for row in ladder_rows]} != {ladder}")
        ref = reference.Prefix(s, reference.marks_for_eta([2 * n for n in ladder])
                               + reference.marks_for_defect(ladder))
        for n, row in zip(ladder, ladder_rows):
            self._agree(f"|eta_2n| at n={n}", _number(row, "eta_abs"), abs(ref.eta(2 * n)),
                        ref.tol(2 * n, ref.abs_sum(2 * n)))
            self._agree(f"|defect| at n={n}", _number(row, "defect_abs"), abs(ref.defect(n)),
                        ref.defect_tol(n))
        (ref_row,) = [row for row in rows if row["stage"] == "reference"]
        eta_s = reference.altzeta_at(s)
        self._agree("reference |eta(s_k)|", _number(ref_row, "eta_abs"), abs(eta_s), ZERO_TARGET)
        if result["richardson"] is None:
            raise Mismatch("eta_richardson returned nothing")
        self._agree("eta_richardson(s_k)", complex(*result["richardson"]), eta_s, ZERO_TOL)

    def _fit(self, what: str, row, ref, ladder) -> None:
        for key, (want, tol) in zip(("beta", "log_c", "rms_residual"), _reference_fit(ref, ladder)):
            self._agree(f"{what} {key}", _number(row, key), want, tol)

    def _converge(self, argv, rows, result) -> None:
        s = _point(argv)
        ladder = _doubling(int(_option(argv, "--n", str(LADDER_START))),
                           int(_option(argv, "--n-max", str(CONVERGE_N_MAX))))
        defect_rows = [row for row in rows if row["kind"] == "defect"]
        if [int(row["n"]) for row in defect_rows] != ladder:
            raise Mismatch(f"converge ladder {[row['n'] for row in defect_rows]} != {ladder}")
        ref = reference.Prefix(s, reference.marks_for_defect(ladder))
        for n, row in zip(ladder, defect_rows):
            d, tol = ref.defect(n), ref.defect_tol(n)
            self._agree(f"defect at n={n}", _pair(row, "defect"), d, tol)
            self._agree(f"|defect| at n={n}", _number(row, "defect_abs"), abs(d), tol)
        (fit_row,) = [row for row in rows if row["kind"] == "fit"]
        self._fit("converge", fit_row, ref, ladder)

    def _sweep(self, argv, rows, result) -> None:
        lo = float(_option(argv, "--sigma-min"))
        step = float(_option(argv, "--sigma-step"))
        count = int(math.floor((float(_option(argv, "--sigma-max")) - lo) / step + 1e-9)) + 1
        t = float(_option(argv, "--t", "0"))
        ladder = _doubling(int(_option(argv, "--n", str(LADDER_START))),
                           int(_option(argv, "--n-max", str(SWEEP_N_MAX))))
        if len(rows) != count:
            raise Mismatch(f"sweep printed {len(rows)} rows, expected {count}")
        for i, row in enumerate(rows):
            s = complex(lo + i * step, t)
            ref = reference.Prefix(s, reference.marks_for_defect(ladder))
            self._fit(f"sweep sigma={s.real!r}", row, ref, ladder)
