from __future__ import annotations

import math
import random

import pytest

import parityshield as ps
from parityshield.model import _classify


def test_mode_splitting_constructor(case1):
    assert case1.lam == 2.0
    assert case1.omega == 1.0                      # caller's value, bit-exact
    assert case1.r_rate == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-15)
    assert case1.branch == ps.BRANCH_OVERDAMPED
    assert case1.alpha1 == case1.alpha2 == pytest.approx(math.sqrt(0.5))
    assert case1.alpha == pytest.approx(1.0, abs=1e-15)
    assert case1.w_coupling * case1.alpha == pytest.approx(case1.r_rate)


@pytest.mark.parametrize("lam, omega", [(2.0, 1.0), (1.0, 0.5), (3.0, 2.9),
                                        (2.0, 0.0)])
def test_splitting_identity(lam, omega):
    p = ps.ModelParams.from_mode_splitting(lam, omega)
    assert p.omega ** 2 + 4.0 * p.r_rate ** 2 == pytest.approx(
        lam ** 2, rel=1e-12)


def test_effective_rate_constructor():
    p = ps.ModelParams.from_effective_rate(2.0, 0.5)
    assert p.r_rate == 0.5
    assert p.alpha == pytest.approx(1.0)
    assert p.w_coupling == 0.5                     # alpha = 1 makes W = R
    assert p.branch == ps.BRANCH_OVERDAMPED
    assert p.omega == pytest.approx(math.sqrt(3.0), rel=1e-15)


def test_couplings_constructor():
    p = ps.ModelParams.from_couplings(2.0, 0.5, 0.6, 0.8)
    assert p.alpha == pytest.approx(1.0)
    assert p.r_rate == pytest.approx(0.5)
    q = ps.ModelParams.from_couplings(2.0, 0.25, 1.2, 1.6)
    # only alpha * W matters for the reduced two-level dynamics
    assert q.r_rate == pytest.approx(p.r_rate)
    assert q.omega == pytest.approx(p.omega)


def test_branch_tagging():
    assert _classify(2.0, 0.5)[1] == ps.BRANCH_OVERDAMPED
    assert _classify(2.0, 1.0)[1] == ps.BRANCH_CRITICAL
    assert _classify(1.0, 2.0)[1] == ps.BRANCH_UNDERDAMPED
    # the critical tag has a relative window, not an absolute one
    assert _classify(2.0, 1.0 * (1.0 + 1e-14))[1] == ps.BRANCH_CRITICAL
    assert _classify(2.0, 1.0 * (1.0 + 1e-5))[1] == ps.BRANCH_UNDERDAMPED
    assert _classify(2000.0, 1000.0 * (1.0 + 1e-14))[1] == ps.BRANCH_CRITICAL


def test_critical_params():
    p = ps.ModelParams.from_effective_rate(2.0, 1.0)
    assert p.branch == ps.BRANCH_CRITICAL
    assert p.omega == pytest.approx(0.0, abs=1e-6)


def test_underdamped_params():
    p = ps.ModelParams.from_effective_rate(1.0, 2.0)
    assert p.branch == ps.BRANCH_UNDERDAMPED
    assert p.omega == pytest.approx(math.sqrt(15.0), rel=1e-12)


@pytest.mark.parametrize("ctor, args", [
    (ps.ModelParams.from_mode_splitting, (-1.0, 0.5)),
    (ps.ModelParams.from_mode_splitting, (2.0, 3.0)),
    (ps.ModelParams.from_mode_splitting, (2.0, -0.5)),
    (ps.ModelParams.from_mode_splitting, (2.0, 2.0)),
    (ps.ModelParams.from_effective_rate, (2.0, 0.0)),
    (ps.ModelParams.from_effective_rate, (0.0, 1.0)),
    (ps.ModelParams.from_couplings, (2.0, 0.5, -0.6, 0.8)),
    (ps.ModelParams.from_couplings, (2.0, 0.5, 0.6, 0.0)),
    # infinite rates, and rates whose squares overflow the damping split
    (ps.ModelParams.from_mode_splitting, (math.inf, 1.0)),
    (ps.ModelParams.from_mode_splitting, (1e200, 1.0)),
    (ps.ModelParams.from_mode_splitting, (2.0, 1e160)),
    (ps.ModelParams.from_effective_rate, (math.inf, 1.0)),
    (ps.ModelParams.from_effective_rate, (2.0, math.inf)),
    (ps.ModelParams.from_effective_rate, (1e200, 1.0)),
    (ps.ModelParams.from_effective_rate, (2.0, 1e160)),
    (ps.ModelParams.from_couplings, (math.inf, 0.5, 0.6, 0.8)),
    (ps.ModelParams.from_couplings, (2.0, math.inf, 0.6, 0.8)),
    (ps.ModelParams.from_couplings, (1e200, 0.5, 0.6, 0.8)),
    (ps.ModelParams.from_couplings, (2.0, 1e160, 0.6, 0.8)),
])
def test_bad_parameters_rejected(ctor, args):
    with pytest.raises(ps.ParameterError):
        ctor(*args)


@pytest.mark.parametrize("ctor, args", [
    (ps.ModelParams.from_mode_splitting, (1e-200, 5e-201)),
    (ps.ModelParams.from_mode_splitting, (1e-200, 1e-200)),
    (ps.ModelParams.from_effective_rate, (1e-200, 3e-200)),
    (ps.ModelParams.from_effective_rate, (1e-300, 1e-300)),
    (ps.ModelParams.from_couplings, (1e-200, 3e-200, 0.6, 0.8)),
], ids=["splitting", "splitting-zero-rate", "rate", "rate-1e-300",
        "couplings"])
def test_underflowing_rates_rejected(ctor, args):
    # lam^2 and 4 R^2 both below the smallest normal float: every pair
    # would read as critical with omega = 0
    with pytest.raises(ps.ParameterError, match="rates underflow the damping "
                       r"split lam\^2 - 4 R\^2: lam=1e-[23]00, "):
        ctor(*args)


def test_subnormal_rate_square_rejected():
    # 4 R^2 = 4e-312 keeps a few digits of R^2: accepted, the survival at
    # t = 1e160 is 3.6e-7 off its scale equivalent (lam, R, t) = (1, 1e-6,
    # 1e10)
    with pytest.raises(ps.ParameterError, match="subnormal 4 R\\^2"):
        ps.ModelParams.from_effective_rate(1e-150, 1e-156)


def test_smallest_normal_square_accepted():
    # one square at the smallest normal float is enough for the split
    lam = 1.5e-154
    assert lam * lam >= 2.2250738585072014e-308
    p = ps.ModelParams.from_effective_rate(lam, 1e-200)
    assert p.branch == ps.BRANCH_OVERDAMPED and p.omega == lam
    assert ps.ModelParams.from_effective_rate(1e-200, lam).branch == (
        ps.BRANCH_UNDERDAMPED)


@pytest.mark.parametrize("lam, omega, name", [
    (math.inf, math.inf, "decay rate"),
    (math.inf, 1.0, "decay rate"),
    (2.0, math.inf, "mode splitting"),
    (2.0, math.nan, "mode splitting"),
])
def test_mode_splitting_names_non_finite_value(lam, omega, name):
    with pytest.raises(ps.ParameterError, match=f"{name} must be finite"):
        ps.ModelParams.from_mode_splitting(lam, omega)


def test_weight_check_message():
    # from_couplings leaves the weight check to the dataclass
    with pytest.raises(ps.ParameterError, match=r"coupling weights must be "
                       r"positive reals, got \(-0\.6, 0\.8\)"):
        ps.ModelParams.from_couplings(2.0, 0.5, -0.6, 0.8)


def test_decompose_recompose_round_trip(case1):
    phys = ps.PhysicalAmplitudes.initial(0.6, 0.8j)
    state = ps.decompose(phys, case1)
    assert state.norm_sq == pytest.approx(1.0, abs=1e-14)
    back = ps.recompose(state, case1)
    assert back.c10 == pytest.approx(phys.c10, abs=1e-15)
    assert back.c01 == pytest.approx(phys.c01, abs=1e-15)


def test_change_of_basis_is_isometry():
    rng = random.Random(7)
    p = ps.ModelParams.from_couplings(2.0, 0.5, 0.3, 0.9)
    for _ in range(25):
        c10 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        c01 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        scale = math.sqrt(abs(c10) ** 2 + abs(c01) ** 2) or 1.0
        phys = ps.PhysicalAmplitudes.initial(c10 / scale, c01 / scale)
        state = ps.decompose(phys, p)
        assert state.norm_sq == pytest.approx(phys.norm_sq, abs=1e-14)


def test_dark_and_superradiant_map_to_basis_vectors(case1):
    a1 = case1.alpha1 / case1.alpha
    a2 = case1.alpha2 / case1.alpha
    dark_phys = ps.PhysicalAmplitudes.initial(a2, -a1)
    state = ps.decompose(dark_phys, case1)
    assert abs(state.beta1 - 1.0) < 1e-15 and abs(state.beta2) < 1e-15
    sup_phys = ps.PhysicalAmplitudes.initial(a1, a2)
    state = ps.decompose(sup_phys, case1)
    assert abs(state.beta1) < 1e-15 and abs(state.beta2 - 1.0) < 1e-15


def test_state_normalization_guard():
    with pytest.raises(ps.StateError):
        ps.OddParityState.initial(1.0, 1.0)
    with pytest.raises(ps.StateError):
        ps.PhysicalAmplitudes.initial(0.9, 0.9)
    s = ps.OddParityState.initial(math.sqrt(0.5), 1j * math.sqrt(0.5))
    assert s.norm_sq == pytest.approx(1.0, abs=1e-15)


EACH_STATE_CONSTRUCTOR = pytest.mark.parametrize("make", [
    ps.OddParityState, ps.OddParityState.initial,
    ps.PhysicalAmplitudes, ps.PhysicalAmplitudes.initial,
], ids=["state", "state-initial", "physical", "physical-initial"])


@EACH_STATE_CONSTRUCTOR
def test_nan_amplitude_rejected(make):
    # NaN compares false, so a norm check written as "norm > 1" lets it in
    with pytest.raises(ps.StateError, match="nan"):
        make(math.nan, 0.0)



@EACH_STATE_CONSTRUCTOR
def test_overflowing_amplitude_rejected(make):
    # |1e200|^2 is past the float range: the norm is inf and refused, not an
    # OverflowError
    with pytest.raises(ps.StateError, match="inf"):
        make(1e200, 0.0)
