from __future__ import annotations

import math

import pytest

import parityshield as ps
from parityshield.validation import _DEFAULT_TOLS

# the checks that run on the direct-quadrature backend or on no oracle
_QUADRATURE_ONLY = {
    "free_closed_form_vs_quadrature",
    "zeno_composition_identity",
    "zeno_quadratic_limit",
    "dd_slope_reversal",
    "dd_interval_ode_residual",
    "finite_window_edge_continuity",
    "finite_free_segment_ode_residual",
    "finite_instantaneous_limit",
    "finite_limit_monotone_in_n",
}


def test_both_backends_run_every_check():
    report = ps.run_validation()
    names = [r.name for r in report.results]
    assert sorted(names) == sorted(_DEFAULT_TOLS)
    assert len(names) == 20
    assert report.ok, [r.line() for r in report.results if not r.passed]


def test_quadrature_backend_alone():
    report = ps.run_validation(oracle_modes=(ps.DIRECT_QUADRATURE,))
    names = [r.name for r in report.results]
    assert sorted(names) == sorted(_QUADRATURE_ONLY)
    assert report.ok, [r.line() for r in report.results if not r.passed]


def test_nan_tolerance_rejected():
    with pytest.raises(ps.ConfigError, match="dd_slope_reversal"):
        ps.run_validation({"dd_slope_reversal": math.nan})


def test_infinite_tolerance_allowed():
    report = ps.run_validation({"dd_slope_reversal": math.inf},
                               oracle_modes=(ps.DIRECT_QUADRATURE,))
    slope = next(r for r in report.results if r.name == "dd_slope_reversal")
    assert slope.tolerance == math.inf and slope.passed


@pytest.mark.parametrize("modes", [(), ("rk45",),
                                   (ps.EXACT_AUGMENTED, "rk45")])
def test_bad_oracle_modes_rejected(modes):
    with pytest.raises(ps.ConfigError):
        ps.run_validation(oracle_modes=modes)
