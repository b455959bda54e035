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
import contextlib
import csv
import sys
from math import floor, inf

from .decay import defect_ladder, fit_decay, strip_sweep
from .identities import _residual_ladder, defect, integral_closed_form
from .partial_sums import DEFAULT_MAX_TERMS, _prefix_sums
from .zeros import MIN_TARGET_TOL, ToleranceNotReached, _zero_ladder, eta_reference, zero_point

DEFAULT_RESIDUAL_TOL = 1e-12
DEFAULT_ZERO_TOL = 1e-10
DEFAULT_LADDER_START = 16


def _fmt(x: str | int | float) -> str:
    # One CSV cell or header value: text as is, int in decimal, float at 17 digits.
    return x if isinstance(x, str) else str(x) if isinstance(x, int) else format(float(x), ".17g")


def _doubling_ladder(start: int, n_max: int) -> list[int]:
    if n_max < 1:
        raise ValueError(f"--n-max must be positive, got {n_max}")
    if start < 1:  # a start of 0 never doubles; a negative one never reaches n_max
        raise ValueError(f"--n must be positive, got {start}")
    ladder = [min(start, n_max)]
    while 2 * ladder[-1] <= n_max:
        ladder.append(2 * ladder[-1])
    return ladder


def _tol(text: str) -> float:
    tol = float(text)
    if not 0.0 <= tol < inf:  # nan fails every comparison, so it is rejected too
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text}")
    return tol


def _cmd_eval(args) -> tuple[list[str], list[str], list[list], bool]:
    s = complex(args.sigma, args.t)
    comments = [f"# altzeta eval: sigma={_fmt(args.sigma)} t={_fmt(args.t)} n={args.n}"]
    header = ["n", "zeta_re", "zeta_im", "eta_re", "eta_im",
              "defect_re", "defect_im", "integral_re", "integral_im"]
    zeta, eta, _ = _prefix_sums(s, [args.n])[0]
    z, e = zeta.value, eta.value
    d = defect(args.n, s)
    i = integral_closed_form(s)
    row = [args.n, z.real, z.imag, e.real, e.imag, d.real, d.imag, i.real, i.imag]
    return comments, header, [row], True


def _cmd_residuals(args) -> tuple[list[str], list[str], list[list], bool]:
    s = complex(args.sigma, args.t)
    comments = [
        f"# altzeta residuals: sigma={_fmt(args.sigma)} t={_fmt(args.t)} n_max={args.n_max}",
        f"# tol: abs_diff <= {_fmt(args.tol)} * max(scale, 1) for each identity",
    ]
    header = ["n", "cancel_diff", "cancel_scale", "band_diff", "band_scale",
              "quad_diff", "quad_scale", "eta_re", "eta_im"]
    ladder = _doubling_ladder(1, args.n_max)
    residuals = _residual_ladder(ladder, s)
    rows = [[n, cancel.abs_diff, cancel.scale, band.abs_diff, band.scale,
             quad.abs_diff, quad.scale, band.lhs.real, band.lhs.imag]
            for n, (cancel, band, quad) in zip(ladder, residuals)]
    ok = all(r.abs_diff <= args.tol * max(r.scale, 1.0) for rung in residuals for r in rung)
    return comments, header, rows, ok


def _cmd_zeros(args) -> tuple[list[str], list[str], list[list], bool]:
    point = zero_point(args.k)
    target = max(MIN_TARGET_TOL, 0.1 * args.tol)
    comments = [
        f"# altzeta zeros: k={args.k} t={_fmt(point.s.imag)} n_max={args.n_max}",
        f"# tol: final reference magnitude <= {_fmt(args.tol)} "
        f"(accelerator target {_fmt(target)}); ladder magnitudes must decrease",
    ]
    header = ["stage", "n", "eta_abs", "identity_diff", "defect_abs"]
    checks = _zero_ladder(point, _doubling_ladder(DEFAULT_LADDER_START, args.n_max))
    # |n**(-it)| = 1, so |predicted| is |defect|.
    rows = [["ladder", c.n, c.magnitude, c.identity_diff, abs(c.predicted)] for c in checks]
    ref = abs(eta_reference(point.s, target))
    rows.append(["reference", "", ref, "", ""])
    decreasing = all(b.magnitude < a.magnitude for a, b in zip(checks, checks[1:]))
    return comments, header, rows, decreasing and ref <= args.tol


def _cmd_converge(args) -> tuple[list[str], list[str], list[list], bool]:
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
    rows = [["defect", n, d.real, d.imag, abs(d), "", "", "", ""] for n, d in samples]
    rows.append(["fit", "", "", "", "", fit.beta, fit.log_c, fit.rms_residual, fit.points_used])
    return comments, header, rows, True


def _cmd_sweep(args) -> tuple[list[str], list[str], list[list], bool]:
    if not 0.0 < args.sigma_step < inf:  # nan fails every comparison, so it is rejected too
        raise ValueError(f"--sigma-step must be positive and finite, got {args.sigma_step}")
    if not -inf < args.sigma_min <= args.sigma_max < inf:
        raise ValueError("need finite --sigma-min <= --sigma-max, "
                         f"got {args.sigma_min} and {args.sigma_max}")
    ladder = _doubling_ladder(args.n, args.n_max)
    # One magnitude per node and sigma: cap them before floor, which an inf span would overflow.
    most = DEFAULT_MAX_TERMS // ladder[-1]  # span < most is count * n_max <= the cap
    span = (args.sigma_max - args.sigma_min) / args.sigma_step + 1e-9
    if span >= most:
        raise ValueError(f"--sigma-step {args.sigma_step} gives over {most} sigmas to n = "
                         f"{ladder[-1]}, which exceeds the configured limit of {DEFAULT_MAX_TERMS} terms")
    count = int(floor(span)) + 1
    grid = [args.sigma_min + i * args.sigma_step for i in range(count)]
    comments = [
        f"# altzeta sweep: sigma={_fmt(args.sigma_min)}..{_fmt(args.sigma_max)} "
        f"step={_fmt(args.sigma_step)} t={_fmt(args.t)} "
        f"ladder={ladder[0]}..{ladder[-1]} (doubling)",
    ]
    header = ["sigma", "t", "beta", "log_c", "rms_residual"]
    rows = [[p.s.real, p.s.imag, p.fit.beta, p.fit.log_c, p.fit.rms_residual]
            for p in strip_sweep(grid, args.t, ladder)]
    return comments, header, rows, True


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altzeta",
        description="Alternating zeta partial sums, identity residuals, "
                    "line Re(s)=1 zero demos, and defect decay fits (CSV output).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output CSV path (default stdout)")
    at_t = argparse.ArgumentParser(add_help=False, parents=[out])
    at_t.add_argument("--t", type=float, default=0.0, help="Im(s) (default 0)")
    point = argparse.ArgumentParser(add_help=False, parents=[at_t])
    point.add_argument("--sigma", type=float, required=True, help="Re(s)")

    p = sub.add_parser("eval", parents=[point],
                       help="partial sums, defect, and integral at one (s, n)")
    p.add_argument("--n", type=int, required=True, help="number of terms")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("residuals", parents=[point],
                       help="identity residuals over a doubling n-ladder")
    p.add_argument("--n-max", type=int, required=True, help="ladder top (ladder is 1,2,4,..)")
    p.add_argument("--tol", type=_tol, default=DEFAULT_RESIDUAL_TOL,
                   help=f"pass threshold on abs_diff/max(scale,1) (default {DEFAULT_RESIDUAL_TOL})")
    p.set_defaults(func=_cmd_residuals)

    p = sub.add_parser("zeros", parents=[out],
                       help="zero demonstration at s_k = 1 + 2k*pi*i/log 2")
    p.add_argument("--k", type=int, required=True, help="nonzero zero index")
    p.add_argument("--n-max", type=int, default=4096, help="ladder top (default 4096)")
    p.add_argument("--tol", type=_tol, default=DEFAULT_ZERO_TOL,
                   help=f"bound on the reference magnitude (default {DEFAULT_ZERO_TOL})")
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("converge", parents=[point], help="defect ladder and decay fit at one s")
    p.add_argument("--n", type=int, default=DEFAULT_LADDER_START,
                   help=f"ladder start (default {DEFAULT_LADDER_START})")
    p.add_argument("--n-max", type=int, default=16384, help="ladder top (default 16384)")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("sweep", parents=[at_t], help="decay fits across the critical strip")
    p.add_argument("--sigma-min", type=float, required=True)
    p.add_argument("--sigma-max", type=float, required=True)
    p.add_argument("--sigma-step", type=float, required=True)
    p.add_argument("--n", type=int, default=DEFAULT_LADDER_START)
    p.add_argument("--n-max", type=int, default=4096, help="ladder top (default 4096)")
    p.set_defaults(func=_cmd_sweep)

    return parser


_PARSER = _build_parser()


def _emit(stream, comments: list[str], header: list[str], rows: list[list]) -> None:
    stream.writelines(line + "\n" for line in comments)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerows([_fmt(x) for x in row] for row in [header, *rows])


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
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
    with (open(args.out, "w", newline="") if args.out is not None
          else contextlib.nullcontext(sys.stdout)) as stream:
        _emit(stream, comments, header, rows)
    return 0 if ok else 1
