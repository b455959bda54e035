"""The public surface: exported names, call signatures and the README example.

Adding or removing a public name or parameter is a deliberate edit of the
tables below, as ``TestOptions`` in test_cli.py makes it for CLI flags.
"""

import dataclasses
import inspect
import re
from pathlib import Path

import altzeta

README = Path(__file__).resolve().parents[1] / "README.md"

# Every public function and result type, with parameter names, kinds and
# defaults (annotations are left out: they are strings under
# ``from __future__ import annotations``).
SIGNATURES = {
    "DecayFit": "(beta, log_c, rms_residual, points_used)",
    "Residual": "(lhs, rhs, abs_diff, scale)",
    "StripSample": "(s, fit)",
    "SumResult": "(value, err_bound, terms, abs_sum)",
    "ZeroCheck": "(point, n, eta_value, predicted, identity_diff, magnitude)",
    "ZeroPoint": "(k, s)",
    "band_sum": "(n, s)",
    "defect": "(n, s)",
    "defect_ladder": "(s, n_ladder)",
    "eta_partial": "(n, s)",
    "eta_reference": "(s, target_abs_tol)",
    "eta_richardson": "(s)",
    "fit_decay": "(samples)",
    "integral_closed_form": "(s)",
    "pow_neg": "(n, s)",
    "residual_suite": "(n, s)",
    "riemann_sum": "(n, s)",
    "strip_sweep": "(sigma_grid, t, n_ladder)",
    "sum_fixed_order": "(terms)",
    "zero_check": "(k, n)",
    "zero_point": "(k)",
    "zeta_partial": "(n, s)",
}

OTHER_NAMES = [
    "DEFAULT_K_LIMIT",
    "DEFAULT_MAX_TERMS",
    "DEGENERACY_FLOOR",
    "MACHINE_EPSILON",
    "ToleranceNotReached",
]


def _plain_signature(obj) -> str:
    sig = inspect.signature(obj)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


def test_exported_names_pinned():
    assert sorted(altzeta.__all__) == sorted([*SIGNATURES, *OTHER_NAMES])
    assert len(altzeta.__all__) == 27
    for name in altzeta.__all__:
        assert hasattr(altzeta, name), name


def test_signatures_pinned():
    found = {
        name: _plain_signature(obj)
        for name in altzeta.__all__
        if inspect.isfunction(obj := getattr(altzeta, name)) or dataclasses.is_dataclass(obj)
    }
    assert found == SIGNATURES


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
