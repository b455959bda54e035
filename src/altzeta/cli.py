"""Command line front end emitting CSV for external plotting.

Five commands: ``eval`` (one row of partial sums, defect, and integral),
``residuals`` (identity residuals over a doubling ladder, pass/fail exit),
``zeros`` (zero demonstration at s_k with oracle cross-check), ``converge``
(defect ladder plus decay fit at one s), and ``sweep`` (decay fits across
the critical strip).

Output is plain CSV: LF line endings, floats at 17 significant digits, a
``#`` comment header recording parameters and tolerances.  Exit codes:
0 success / checks passed, 1 checks computed but failed tolerance, 2 usage
or contract error.  Identical invocations produce byte-identical output;
diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import sys
from math import floor

from .decay import defect_ladder, fit_decay, strip_sweep
from .identities import _residual_ladder, defect, integral_closed_form
from .partial_sums import _prefix_sums
from .zeros import MIN_TARGET_TOL, ToleranceNotReached, _zero_ladder, eta_reference, zero_point

DEFAULT_RESIDUAL_TOL = 1e-12
DEFAULT_ZERO_TOL = 1e-10
DEFAULT_LADDER_START = 16


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _doubling_ladder(start: int, n_max: int) -> list[int]:
    if n_max < 1:
        raise ValueError(f"--n-max must be positive, got {n_max}")
    start = min(start, n_max)
    ladder = []
    n = start
    while n <= n_max:
        ladder.append(n)
        n *= 2
    return ladder


def _cmd_eval(args) -> tuple[list[str], list[str], list[list[str]], bool]:
    s = complex(args.sigma, args.t)
    comments = [f"# altzeta eval: sigma={_fmt(args.sigma)} t={_fmt(args.t)} n={args.n}"]
    header = ["n", "zeta_re", "zeta_im", "eta_re", "eta_im",
              "defect_re", "defect_im", "integral_re", "integral_im"]
    z, e, _ = (r.value for r in _prefix_sums(s, [args.n])[0])
    d = defect(args.n, s)
    i = integral_closed_form(s)
    row = [str(args.n)] + [_fmt(v) for v in
                           (z.real, z.imag, e.real, e.imag, d.real, d.imag, i.real, i.imag)]
    return comments, header, [row], True


def _cmd_residuals(args) -> tuple[list[str], list[str], list[list[str]], bool]:
    s = complex(args.sigma, args.t)
    tol = args.tol
    comments = [
        f"# altzeta residuals: sigma={_fmt(args.sigma)} t={_fmt(args.t)} n_max={args.n_max}",
        f"# tol: abs_diff <= {_fmt(tol)} * max(scale, 1) for each identity",
    ]
    header = ["n", "cancel_diff", "cancel_scale", "band_diff", "band_scale",
              "quad_diff", "quad_scale", "eta_re", "eta_im"]
    rows = []
    ok = True
    ladder = _doubling_ladder(1, args.n_max)
    for n, (cancel, band, quad) in zip(ladder, _residual_ladder(ladder, s)):
        for r in (cancel, band, quad):
            if r.abs_diff > tol * max(r.scale, 1.0):
                ok = False
        rows.append([str(n),
                     _fmt(cancel.abs_diff), _fmt(cancel.scale),
                     _fmt(band.abs_diff), _fmt(band.scale),
                     _fmt(quad.abs_diff), _fmt(quad.scale),
                     _fmt(band.lhs.real), _fmt(band.lhs.imag)])
    return comments, header, rows, ok


def _cmd_zeros(args) -> tuple[list[str], list[str], list[list[str]], bool]:
    point = zero_point(args.k)
    tol = args.tol
    target = max(MIN_TARGET_TOL, 0.1 * tol)
    comments = [
        f"# altzeta zeros: k={args.k} t={_fmt(point.s.imag)} n_max={args.n_max}",
        f"# tol: final reference magnitude <= {_fmt(tol)} "
        f"(accelerator target {_fmt(target)}); ladder magnitudes must decrease",
    ]
    header = ["stage", "n", "eta_abs", "identity_diff", "defect_abs"]
    rows = []
    magnitudes = []
    ladder = _doubling_ladder(DEFAULT_LADDER_START, args.n_max)
    for n, check in zip(ladder, _zero_ladder(point, ladder)):
        d_abs = abs(check.predicted)  # |n**(-it)| = 1, so this is |defect|
        magnitudes.append(check.magnitude)
        rows.append(["ladder", str(n), _fmt(check.magnitude),
                     _fmt(check.identity_diff), _fmt(d_abs)])
    ref = abs(eta_reference(point.s, target))
    rows.append(["reference", "", _fmt(ref), "", ""])
    decreasing = all(b < a for a, b in zip(magnitudes, magnitudes[1:]))
    return comments, header, rows, decreasing and ref <= tol


def _cmd_converge(args) -> tuple[list[str], list[str], list[list[str]], bool]:
    s = complex(args.sigma, args.t)
    ladder = _doubling_ladder(args.n, args.n_max)
    comments = [
        f"# altzeta converge: sigma={_fmt(args.sigma)} t={_fmt(args.t)} "
        f"ladder={ladder[0]}..{ladder[-1]} (doubling)",
    ]
    header = ["kind", "n", "defect_re", "defect_im", "defect_abs",
              "beta", "log_c", "rms_residual", "points_used"]
    samples = defect_ladder(s, ladder)
    fit = fit_decay(samples)
    rows = [["defect", str(n), _fmt(d.real), _fmt(d.imag), _fmt(abs(d)), "", "", "", ""]
            for n, d in samples]
    rows.append(["fit", "", "", "", "",
                 _fmt(fit.beta), _fmt(fit.log_c), _fmt(fit.rms_residual),
                 str(fit.points_used)])
    return comments, header, rows, True


def _cmd_sweep(args) -> tuple[list[str], list[str], list[list[str]], bool]:
    if args.sigma_step <= 0.0:
        raise ValueError(f"--sigma-step must be positive, got {args.sigma_step}")
    if args.sigma_max < args.sigma_min:
        raise ValueError("--sigma-max must not be below --sigma-min")
    count = int(floor((args.sigma_max - args.sigma_min) / args.sigma_step + 1e-9)) + 1
    grid = [args.sigma_min + i * args.sigma_step for i in range(count)]
    ladder = _doubling_ladder(args.n, args.n_max)
    comments = [
        f"# altzeta sweep: sigma={_fmt(args.sigma_min)}..{_fmt(args.sigma_max)} "
        f"step={_fmt(args.sigma_step)} t={_fmt(args.t)} "
        f"ladder={ladder[0]}..{ladder[-1]} (doubling)",
    ]
    header = ["sigma", "t", "beta", "log_c", "rms_residual"]
    rows = []
    for sample in strip_sweep(grid, args.t, ladder):
        fit = sample.fit
        rows.append([_fmt(sample.s.real), _fmt(sample.s.imag),
                     _fmt(fit.beta), _fmt(fit.log_c), _fmt(fit.rms_residual)])
    return comments, header, rows, True


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altzeta",
        description="Alternating zeta partial sums, identity residuals, "
                    "line Re(s)=1 zero demos, and defect decay fits (CSV output).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="partial sums, defect, and integral at one (s, n)")
    p.add_argument("--sigma", type=float, required=True, help="Re(s)")
    p.add_argument("--t", type=float, default=0.0, help="Im(s) (default 0)")
    p.add_argument("--n", type=int, required=True, help="number of terms")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("residuals", help="identity residuals over a doubling n-ladder")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--n-max", type=int, required=True, help="ladder top (ladder is 1,2,4,..)")
    p.add_argument("--tol", type=float, default=DEFAULT_RESIDUAL_TOL,
                   help=f"pass threshold on abs_diff/max(scale,1) (default {DEFAULT_RESIDUAL_TOL})")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_residuals)

    p = sub.add_parser("zeros", help="zero demonstration at s_k = 1 + 2k*pi*i/log 2")
    p.add_argument("--k", type=int, required=True, help="nonzero zero index")
    p.add_argument("--n-max", type=int, default=4096, help="ladder top (default 4096)")
    p.add_argument("--tol", type=float, default=DEFAULT_ZERO_TOL,
                   help=f"bound on the reference magnitude (default {DEFAULT_ZERO_TOL})")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("converge", help="defect ladder and decay fit at one s")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--n", type=int, default=DEFAULT_LADDER_START,
                   help=f"ladder start (default {DEFAULT_LADDER_START})")
    p.add_argument("--n-max", type=int, default=16384, help="ladder top (default 16384)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("sweep", help="decay fits across the critical strip")
    p.add_argument("--sigma-min", type=float, required=True)
    p.add_argument("--sigma-max", type=float, required=True)
    p.add_argument("--sigma-step", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--n", type=int, default=DEFAULT_LADDER_START)
    p.add_argument("--n-max", type=int, default=4096, help="ladder top (default 4096)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    return parser


def _emit(out_path: str | None, comments: list[str], header: list[str],
          rows: list[list[str]]) -> None:
    def write_to(stream) -> None:
        for line in comments:
            stream.write(line + "\n")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    if out_path is None:
        write_to(sys.stdout)
    else:
        with open(out_path, "w", newline="") as handle:
            write_to(handle)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        comments, header, rows, ok = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: value overflows the working precision ({exc})", file=sys.stderr)
        return 2
    except ToleranceNotReached as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(args.out, comments, header, rows)
    return 0 if ok else 1
