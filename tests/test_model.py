from __future__ import annotations

import dataclasses
import inspect
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


# the symmetric weight sqrt(1/2), whose hypot with itself is exactly 1.0
_S = 0.7071067811865476

# each classmethod's inputs and the record it built while every classmethod
# derived alpha, R, omega and the branch itself: all three branches, the
# critical window, the underflow and subnormal edges, asymmetric weights
_FROZEN_RECORDS = [
    ("mode_splitting", (2.0, 1.0), (2.0, 0.8660254037844386, _S, _S, 1.0,
                                    0.8660254037844386, 1.0, "overdamped")),
    ("mode_splitting", (1.0, 0.5), (1.0, 0.4330127018922193, _S, _S, 1.0,
                                    0.4330127018922193, 0.5, "overdamped")),
    ("mode_splitting", (3.0, 2.9), (3.0, 0.3840572873934306, _S, _S, 1.0,
                                    0.3840572873934306, 2.9, "overdamped")),
    ("mode_splitting", (2.0, 0.0), (2.0, 1.0, _S, _S, 1.0, 1.0, 0.0,
                                    "critical")),
    ("mode_splitting", (3.077, 1.939), (3.077, 1.1945928176579668, _S, _S,
                                        1.0, 1.1945928176579668, 1.939,
                                        "overdamped")),
    ("mode_splitting", (2.0, 1e-07), (2.0, 0.9999999999999987, _S, _S, 1.0,
                                      0.9999999999999987, 0.0, "critical")),
    ("mode_splitting", (1.5e-154, 1e-155), (
        1.5e-154, 7.483314773547883e-155, _S, _S, 1.0, 7.483314773547883e-155,
        1e-155, "overdamped")),
    ("effective_rate", (2.0, 0.5), (2.0, 0.5, _S, _S, 1.0, 0.5,
                                    1.7320508075688772, "overdamped")),
    ("effective_rate", (2.0, 1.0), (2.0, 1.0, _S, _S, 1.0, 1.0, 0.0,
                                    "critical")),
    ("effective_rate", (2.0, 1.00000000000001), (
        2.0, 1.00000000000001, _S, _S, 1.0, 1.00000000000001, 0.0,
        "critical")),
    ("effective_rate", (2.0, 1.00001), (2.0, 1.00001, _S, _S, 1.0, 1.00001,
                                        0.008944294270682131, "underdamped")),
    ("effective_rate", (2000.0, 1000.00000000001), (
        2000.0, 1000.00000000001, _S, _S, 1.0, 1000.00000000001, 0.0,
        "critical")),
    ("effective_rate", (1.0, 2.0), (1.0, 2.0, _S, _S, 1.0, 2.0,
                                    3.872983346207417, "underdamped")),
    ("effective_rate", (1.0, 3.0), (1.0, 3.0, _S, _S, 1.0, 3.0,
                                    5.916079783099616, "underdamped")),
    ("effective_rate", (1.5e-154, 1e-200), (1.5e-154, 1e-200, _S, _S, 1.0,
                                            1e-200, 1.5e-154, "overdamped")),
    ("effective_rate", (1e-200, 1.5e-154), (1e-200, 1.5e-154, _S, _S, 1.0,
                                            1.5e-154, 3e-154, "underdamped")),
    ("effective_rate", (1e-150, 1e-153), (1e-150, 1e-153, _S, _S, 1.0, 1e-153,
                                          9.99997999998e-151, "overdamped")),
    ("effective_rate", (1e+150, 1e-150), (1e+150, 1e-150, _S, _S, 1.0,
                                          1e-150, 1e+150, "overdamped")),
    ("effective_rate", (1.0, 1e+153), (1.0, 1e+153, _S, _S, 1.0, 1e+153,
                                       2e+153, "underdamped")),
    ("couplings", (2.0, 0.5, 0.6, 0.8), (2.0, 0.5, 0.6, 0.8, 1.0, 0.5,
                                         1.7320508075688772, "overdamped")),
    ("couplings", (2.0, 0.25, 1.2, 1.6), (2.0, 0.25, 1.2, 1.6, 2.0, 0.5,
                                          1.7320508075688772, "overdamped")),
    ("couplings", (2.0, 0.5, 0.3, 0.9), (
        2.0, 0.5, 0.3, 0.9, 0.9486832980505138, 0.4743416490252569,
        1.760681686165901, "overdamped")),
    ("couplings", (1.0, 3.0, 0.1, 2.0), (
        1.0, 3.0, 0.1, 2.0, 2.0024984394500787, 6.0074953183502355,
        11.973303637676612, "underdamped")),
    ("couplings", (2.0, 1.0, 0.6, 0.8), (2.0, 1.0, 0.6, 0.8, 1.0, 1.0, 0.0,
                                         "critical")),
]


@pytest.mark.parametrize("ctor, args, fields", _FROZEN_RECORDS)
def test_classmethods_keep_every_field_bit_for_bit(ctor, args, fields):
    p = getattr(ps.ModelParams, f"from_{ctor}")(*args)
    # a float's repr reads back as that float, so equal reprs are equal bits
    assert repr(dataclasses.astuple(p)) == repr(fields)


def test_record_takes_the_couplings_and_derives_the_rest(case1):
    names = list(inspect.signature(ps.ModelParams).parameters)
    assert names == ["lam", "w_coupling", "alpha1", "alpha2", "split_root"]
    assert [f.name for f in dataclasses.fields(case1) if not f.init] == [
        "alpha", "r_rate", "omega", "branch"]
    assert repr(case1) == (
        "ModelParams(lam=2.0, w_coupling=0.8660254037844386, "
        "alpha1=0.7071067811865476, alpha2=0.7071067811865476, alpha=1.0, "
        "r_rate=0.8660254037844386, omega=1.0, branch='overdamped')")
    assert hash(case1) == hash(dataclasses.astuple(case1))
    assert ps.ModelParams(2.0, case1.r_rate, _S, _S, 1.0) == case1
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(case1, omega=3.0)


def test_replace_derives_again_without_the_split_root(case1):
    # R is derived again; omega is lam^2 - 4 R^2's root, an ulp off the 1.0
    # that from_mode_splitting kept
    p = dataclasses.replace(case1)
    assert p.r_rate == case1.r_rate and p.omega == 1.0000000000000002
    q = dataclasses.replace(case1, w_coupling=2.0)
    assert (q.r_rate, q.branch) == (2.0, ps.BRANCH_UNDERDAMPED)
    assert q.omega == math.sqrt(12.0)


@pytest.mark.parametrize("make", [
    lambda case1: dataclasses.replace(case1, w_coupling=2.0),
    lambda case1: ps.ModelParams(2.0, 1.0, _S, _S),
], ids=["replace", "raw"])
def test_any_record_gives_the_oracle_rates(case1, cfg_aug, make):
    # a record built without a classmethod once kept a stale R (0.798
    # against the oracle's 0.151) or a free-standing one (-0.0055 against
    # 0.736)
    p = make(case1)
    tr = ps.integrate_free(p, 1.0, cfg_aug)
    closed = np.array(ps.free_survival(tr.times, p))
    assert float(np.max(np.abs(tr.beta2 - closed))) < 1e-6


@pytest.mark.parametrize("root", [1.5, -1.0, math.nan])
def test_split_root_must_be_the_root(root):
    r_rate = math.sqrt(3.0) / 2.0
    with pytest.raises(ps.ParameterError,
                       match=f"split root {root} is not the root"):
        ps.ModelParams(2.0, r_rate, _S, _S, root)
    # off the overdamped branch omega is derived whatever the root
    assert ps.ModelParams(2.0, 1.0, _S, _S, root).omega == 0.0


# u up to 0.999 keeps 4 R^2 = (lam - omega)(lam + omega) a normal float
@given(st.floats(1e-150, 1e150), st.floats(0.0, 0.999))
def test_mode_splitting_keeps_omega_on_its_branch(lam, u):
    omega = lam * u
    p = ps.ModelParams.from_mode_splitting(lam, omega)
    if p.branch == ps.BRANCH_OVERDAMPED:
        assert p.omega == omega
    else:
        assert (p.branch, p.omega) == (ps.BRANCH_CRITICAL, 0.0)


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
    a1, a2 = case1.basis_weights
    assert (a1, a2) == (case1.alpha1 / case1.alpha,
                        case1.alpha2 / case1.alpha)
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


def test_amplitude_pairs_keep_their_names_and_messages():
    assert ps.OddParityState.initial(beta1=1.0, beta2=0.0) == (
        ps.OddParityState.dark())
    assert ps.PhysicalAmplitudes.initial(c10=0.0, c01=1.0).c01 == 1.0
    with pytest.raises(ps.StateError, match=r"^odd-parity norm 2\.0 is not "
                       "at most 1; leakage can only remove weight$"):
        ps.OddParityState(1.0, 1.0)
    with pytest.raises(ps.StateError,
                       match=r"^physical norm 2\.0 is not at most 1$"):
        ps.PhysicalAmplitudes(1.0, 1.0)
    for make in (ps.OddParityState.initial, ps.PhysicalAmplitudes.initial):
        with pytest.raises(ps.StateError, match=r"^initial state must be "
                           r"normalized, \|\.\|\^2 = 0\.25$"):
            make(0.5, 0.0)


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
