"""Seeded request schedules for the benchmark workloads.

A request is one README CLI command line, optionally followed (zero_demo)
by the library oracle eta_richardson at the same zero point.  Requests come
in rounds of a fixed shape: every round holds the same number of requests
per cost stratum (ladder octave, eval size band), so the latency
distribution of a run does not depend on how many rounds the machine
finished or on the seed.  A ladder doubles up to --n-max, so its cost is
set by the octave of --n-max alone; an eval band is narrow enough that the
median and the tail fall on ladder strata whatever the draws.  All inputs
(sizes within their stratum, sigma, t, k, order, which requests get a large
|t|) are drawn from a generator seeded by (workload, seed, round).

A large-|t| ``residuals`` request carries ``--tol`` from the benchmark's own
rounding bound, because the CLI default rejects correct sums there (the
phase of m**-s loses about |t| log m ulps).  The default's verdict at large
|t| is recorded instead by a fixed probe (``probe_requests``) that is not
part of any workload.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

#: The package modules, one layer each in the per-layer metrics.
LAYERS = ("kernel", "partial_sums", "identities", "zeros", "decay", "cli")

# identity_ladders: two residuals ladders per --n-max octave 2^10..2^15
# (n-max log-uniform over 2^10..2^16), five eval points with n log-uniform
# in bands of 0.6 decades over 1e2..1e5, and three of the seventeen requests
# per round (about a fifth) at |t| in [1e3, 1e6].  Sorted by cost, the
# ninth request of a round is a 2^12 ladder whichever side of it the fourth
# eval band falls, so the median lies inside that stratum.
RESIDUAL_OCTAVES = tuple(range(10, 16)) * 2
EVAL_BANDS = 5
LARGE_T_PER_ROUND = 3

#: binary64 unit roundoff.
UNIT_ROUNDOFF = 2.0 ** -53

#: The constant c of the rounding tolerance c*u*(1 + |t| log n) * abs_sum.
TOL_FACTOR = 64.0

# Default-tolerance probe: residuals ladders to 2^10 at sigma 0.5 and
# |t| = 10^3, 10^3.5, ..., 10^6.
PROBE_N_MAX = 1024
PROBE_LOG10_T = (3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0)

# zero_demo: --n-max in octaves 2^12..2^15, two requests per octave.
ZERO_OCTAVES = (12, 13, 14)
ZERO_K_MAX = 16

# decay_fits: two converge runs and one strip sweep per round.
CONVERGES_PER_ROUND = 2


class Request(NamedTuple):
    argv: tuple[str, ...]
    richardson_k: int | None = None


def _fmt(x: float) -> str:
    return repr(float(x))


def residual_tol(t: float, n_max: int) -> float:
    """``--tol`` for a residuals ladder to n_max: c*u*(1 + |t| log 2n_max).

    The CLI compares each residual with tol * max(scale, 1), and its
    scale is the summed term magnitudes, so this is the benchmark's
    rounding tolerance at the largest prefix the ladder sums.
    """
    return TOL_FACTOR * UNIT_ROUNDOFF * (1.0 + abs(t) * math.log(2 * n_max))


def _small_t(rng: random.Random) -> float:
    return rng.uniform(0.0, 50.0)


def _large_t(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(3.0, 6.0)


def _identity_round(rng: random.Random) -> list[Request]:
    slots = len(RESIDUAL_OCTAVES) + EVAL_BANDS
    large = set(rng.sample(range(slots), LARGE_T_PER_ROUND))
    out = []
    for i, j in enumerate(RESIDUAL_OCTAVES):
        n_max = int(2.0 ** (j + rng.random()))
        sigma = _fmt(rng.uniform(-2.0, 4.0))
        if i in large:
            t = _large_t(rng)
            tol = ("--tol", _fmt(residual_tol(t, n_max)))
        else:
            t, tol = _small_t(rng), ()
        out.append(Request(("residuals", "--sigma", sigma, f"--t={_fmt(t)}",
                            "--n-max", str(n_max), *tol)))
    for b in range(EVAL_BANDS):
        i = len(RESIDUAL_OCTAVES) + b
        n = int(10.0 ** (2.0 + 3.0 * (b + rng.random()) / EVAL_BANDS))
        t = _large_t(rng) if i in large else _small_t(rng)
        out.append(Request(("eval", "--sigma", _fmt(rng.uniform(-2.0, 4.0)),
                            f"--t={_fmt(t)}", "--n", str(n))))
    return out


def _zero_round(rng: random.Random) -> list[Request]:
    out = []
    for j in ZERO_OCTAVES * 2:
        n_max = int(2.0 ** (j + rng.random()))
        k = rng.choice((-1, 1)) * rng.randint(1, ZERO_K_MAX)
        out.append(Request(("zeros", "--k", str(k), "--n-max", str(n_max)), k))
    return out


def _decay_round(rng: random.Random) -> list[Request]:
    out = []
    for _ in range(CONVERGES_PER_ROUND):
        out.append(Request(("converge", "--sigma", _fmt(rng.uniform(0.05, 0.95)),
                            "--t", _fmt(_small_t(rng)))))
    # Nine grid points: the 0.85 span keeps floor(span/step) away from an
    # integer, so rounding cannot drop the last point.
    lo = rng.uniform(0.05, 0.15)
    out.append(Request(("sweep", "--sigma-min", _fmt(lo), "--sigma-max", _fmt(lo + 0.85),
                        "--sigma-step", "0.1", "--t", _fmt(_small_t(rng)))))
    return out


ROUNDS = {
    "identity_ladders": _identity_round,
    "zero_demo": _zero_round,
    "decay_fits": _decay_round,
}


def round_requests(workload: str, seed: int, r: int) -> list[Request]:
    """The requests of round r of a workload, in execution order."""
    rng = random.Random(f"{workload}:{seed}:{r}")
    requests = ROUNDS[workload](rng)
    rng.shuffle(requests)
    return requests


def warmup_requests() -> list[Request]:
    """One small request per CLI command, run before timing starts."""
    return [
        Request(("eval", "--sigma", "1", "--t", "0", "--n", "2")),
        Request(("residuals", "--sigma", "0.5", "--t", "14.1", "--n-max", "64")),
        Request(("zeros", "--k", "1", "--n-max", "64"), 1),
        Request(("converge", "--sigma", "0.5", "--t", "1", "--n-max", "256")),
        Request(("sweep", "--sigma-min", "0.1", "--sigma-max", "0.9", "--sigma-step", "0.4",
                 "--t", "1", "--n-max", "256")),
    ]


def probe_requests() -> list[Request]:
    """Large-|t| residuals ladders at the CLI's default tolerance.

    Not part of any workload: the load runs them once after its loop and
    reports how many exit 0.  At the seed commit those at |t| >= 1e5 exit
    1 although their sums are right.
    """
    return [Request(("residuals", "--sigma", "0.5", f"--t={_fmt(10.0 ** e)}",
                     "--n-max", str(PROBE_N_MAX)))
            for e in PROBE_LOG10_T]
