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


def test_double_pi_pulse_flips_ground_amplitude():
    amps = (0.3 + 0.1j, 0.2 - 0.4j, 0.5 + 0.0j)
    flipped = ps.apply_double_pi_pulse(amps)
    assert flipped[0] == amps[0] and flipped[1] == amps[1]
    assert flipped[2] == -amps[2]
    assert ps.apply_double_pi_pulse(flipped) == amps    # involution
