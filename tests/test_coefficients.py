from __future__ import annotations

import math

import numpy as np
import pytest

import parityshield as ps

# first-interval boundary coefficients at tau = 0.1, frozen
A1 = 0.9964901485385421
B1 = 2.1287624691905687

# first-cycle boundary coefficients for duty parameter 10, frozen
A1_N10 = 0.9891289577308269 - 0.0015021061623572058j
B1_N10 = 2.194981654046519 - 0.021501096944931672j


def test_initial_coefficients(case1, dd_sched):
    c = ps.dd_coefficients(0, dd_sched, case1)
    assert (c.a, c.b, c.m) == (1.0, case1.lam / case1.omega, 0)


def test_frozen_first_step(case1, dd_sched):
    c = ps.dd_coefficients(1, dd_sched, case1)
    assert c.a == pytest.approx(A1, abs=1e-14)
    assert c.b == pytest.approx(B1, abs=1e-13)


def test_frozen_first_cycle_coefficients(case1, sched10):
    c = ps.finite_dd_coefficients(1, sched10, case1)
    assert c.a == pytest.approx(A1_N10, abs=1e-12)
    assert c.b == pytest.approx(B1_N10, abs=1e-12)


@pytest.mark.parametrize("m", [math.inf, math.nan, 1.5, 3.0, "3", None, -1,
                               2 ** 53 + 1, True], ids=repr)
def test_cycle_index_must_be_whole(case1, dd_sched, m):
    # inf and nan never finish halving, 1.5 would give cycle 0's state,
    # float(2**53 + 1) rounds to another cycle and True is no index
    with pytest.raises(ps.ParameterError, match="cycle index"):
        ps.coefficients(m, dd_sched, case1)


def test_numpy_cycle_index_accepted(case1, dd_sched):
    assert ps.coefficients(np.int64(3), dd_sched, case1) == ps.coefficients(
        3, dd_sched, case1)
    c = ps.coefficients(2 ** 53, dd_sched, case1)
    assert math.isfinite(c.a) and math.isfinite(c.b)
