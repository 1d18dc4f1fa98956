from __future__ import annotations

import math

import pytest

import parityshield as ps
from parityshield.transfer import _SPLIT_THRESHOLD

# decay factors derived once from the independent integrator and frozen
ETA_01 = 0.9964901485385421
ETA_10 = 0.7982309094947353


def test_frozen_values(case1):
    assert ps.free_survival(0.1, case1) == pytest.approx(ETA_01, abs=1e-14)
    assert ps.free_survival(1.0, case1) == pytest.approx(ETA_10, abs=1e-14)


def test_initial_conditions(case1):
    assert ps.free_survival(0.0, case1) == 1.0
    assert ps.free_survival_slope(0.0, case1) == 0.0


def test_critical_branch_value():
    p = ps.ModelParams.from_effective_rate(2.0, 1.0)
    assert p.branch == ps.BRANCH_CRITICAL
    # at lam * t = 2 the critical form reduces to 2/e
    assert ps.free_survival(1.0, p) == pytest.approx(2.0 / math.e, abs=1e-15)


@pytest.mark.parametrize("rate, branch", [
    (0.3, ps.BRANCH_OVERDAMPED),
    (1.0, ps.BRANCH_CRITICAL),
    (2.5, ps.BRANCH_UNDERDAMPED),
])
def test_small_time_series(rate, branch):
    p = ps.ModelParams.from_effective_rate(2.0, rate)
    assert p.branch == branch
    r_sq = rate * rate
    for t in (1e-4, 1e-3):
        expected = 1.0 - r_sq * t * t / 2.0 + p.lam * r_sq * t ** 3 / 6.0
        assert ps.free_survival(t, p) == pytest.approx(expected, abs=1e-11)


@pytest.mark.parametrize("rate", [0.3, 1.0, 2.5])
def test_slope_matches_central_difference(rate):
    p = ps.ModelParams.from_effective_rate(2.0, rate)
    h = 1e-6
    for t in (0.05, 0.4, 1.3):
        fd = (ps.free_survival(t + h, p) - ps.free_survival(t - h, p)) / (2 * h)
        assert ps.free_survival_slope(t, p) == pytest.approx(fd, abs=1e-8)


def test_bounded_and_positive(case1):
    for j in range(200):
        t = 0.05 * j
        v = ps.free_survival(t, case1)
        assert 0.0 < v <= 1.0
    p = ps.ModelParams.from_effective_rate(1.0, 2.0)
    for j in range(200):
        assert abs(ps.free_survival(0.05 * j, p)) <= 1.0


def test_monotone_decay_overdamped(case1):
    values = [ps.free_survival(0.01 * j, case1) for j in range(500)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_branch_continuity_near_critical():
    # just below the critical rate the two-root evaluation approaches the
    # critical polynomial form, both in the series regime of the split root
    # (t <= 2.5) and past it (t = 25)
    lam = 2.0
    crit = ps.ModelParams.from_effective_rate(lam, lam / 2.0)
    near = ps.ModelParams.from_effective_rate(lam, lam / 2.0 - 1.25e-11)
    assert near.branch == ps.BRANCH_OVERDAMPED
    assert near.omega == pytest.approx(1e-5, rel=1e-6)
    for t in (0.3, 1.0, 2.5, 25.0):
        assert ps.free_survival(t, near) == pytest.approx(
            ps.free_survival(t, crit), rel=1e-8)


def test_large_time_split_form(case1):
    # the split evaluation takes over past lam * t = threshold; both
    # evaluations must agree with the dominant-root formula
    lam, omega = case1.lam, case1.omega
    t_cross = _SPLIT_THRESHOLD / lam
    for t in (t_cross - 1.0, t_cross + 1.0):
        dominant = 0.5 * (1.0 + lam / omega) * math.exp(-(lam - omega) * t / 2.0)
        assert ps.free_survival(t, case1) == pytest.approx(dominant, rel=1e-10)
        slope = -(case1.r_rate ** 2 / omega) * math.exp(-(lam - omega) * t / 2.0)
        assert ps.free_survival_slope(t, case1) == pytest.approx(slope, rel=1e-10)


def test_negative_time_rejected(case1):
    with pytest.raises(ps.ParameterError):
        ps.free_survival(-0.1, case1)
    with pytest.raises(ps.ParameterError):
        ps.free_survival_slope(-0.1, case1)


def test_evolve_conserves_probability(case1):
    state = ps.OddParityState.initial(0.6, 0.8j)
    for t in (0.0, 0.2, 1.0, 3.0):
        res = ps.free_evolve(state, t, case1)
        total = (abs(res.state_t.beta1) ** 2 + abs(res.state_t.beta2) ** 2
                 + res.leak_population)
        assert total == pytest.approx(1.0, abs=1e-14)
        assert res.state_t.beta1 == state.beta1


def test_dark_state_is_fixed_point(case1):
    dark = ps.OddParityState.dark()
    for t in (0.1, 1.0, 10.0):
        res = ps.free_evolve(dark, t, case1)
        assert res.state_t == dark
        assert res.leak_population == 0.0
        assert ps.free_fidelity(dark, t, case1) == 1.0


def test_fidelity_interpolates(case1):
    state = ps.OddParityState.initial(0.6, 0.8)
    f = ps.free_fidelity(state, 1.0, case1)
    assert f == pytest.approx(0.36 + 0.64 * ETA_10, abs=1e-14)
