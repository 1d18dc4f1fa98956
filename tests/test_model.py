from __future__ import annotations

import dataclasses
import inspect
import math
import random
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import parityshield as ps


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
    p = ps.ModelParams(2.0, 0.5, 0.6, 0.8)
    assert p.alpha == pytest.approx(1.0)
    assert p.r_rate == pytest.approx(0.5)
    q = ps.ModelParams(2.0, 0.25, 1.2, 1.6)
    # only alpha * W matters for the reduced two-level dynamics
    assert q.r_rate == pytest.approx(p.r_rate)
    assert q.omega == pytest.approx(p.omega)


# the symmetric weight sqrt(1/2), whose hypot with itself is exactly 1.0
_S = 0.7071067811865476

# each constructor's inputs and the record it built while every classmethod
# derived alpha, R, omega and the branch itself: all three branches, the
# critical window, the underflow and subnormal edges, asymmetric weights
_RECORD_CTORS = {"mode_splitting": ps.ModelParams.from_mode_splitting,
                 "effective_rate": ps.ModelParams.from_effective_rate,
                 "couplings": ps.ModelParams}
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
    p = _RECORD_CTORS[ctor](*args)
    # a float's repr reads back as that float, so equal reprs are equal bits
    assert repr(dataclasses.astuple(p)) == repr(fields)


def test_record_takes_the_couplings_and_derives_the_rest(case1):
    names = list(inspect.signature(ps.ModelParams).parameters)
    assert names == ["lam", "w_coupling", "alpha1", "alpha2"]
    assert [f.name for f in dataclasses.fields(case1) if not f.init] == [
        "alpha", "r_rate", "omega", "branch"]
    assert repr(case1) == (
        "ModelParams(lam=2.0, w_coupling=0.8660254037844386, "
        "alpha1=0.7071067811865476, alpha2=0.7071067811865476, alpha=1.0, "
        "r_rate=0.8660254037844386, omega=1.0, branch='overdamped')")
    assert hash(case1) == hash(dataclasses.astuple(case1))
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
    def branch(lam, r_rate):
        return ps.ModelParams.from_effective_rate(lam, r_rate).branch
    assert branch(2.0, 0.5) == ps.BRANCH_OVERDAMPED
    assert branch(2.0, 1.0) == ps.BRANCH_CRITICAL
    assert branch(1.0, 2.0) == ps.BRANCH_UNDERDAMPED
    # the critical tag has a relative window, not an absolute one
    assert branch(2.0, 1.0 * (1.0 + 1e-14)) == ps.BRANCH_CRITICAL
    assert branch(2.0, 1.0 * (1.0 + 1e-5)) == ps.BRANCH_UNDERDAMPED
    assert branch(2000.0, 1000.0 * (1.0 + 1e-14)) == ps.BRANCH_CRITICAL


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
    (ps.ModelParams, (2.0, 0.5, -0.6, 0.8)),
    (ps.ModelParams, (2.0, 0.5, 0.6, 0.0)),
    # infinite rates, and rates whose squares overflow the damping split
    (ps.ModelParams.from_mode_splitting, (math.inf, 1.0)),
    (ps.ModelParams.from_mode_splitting, (1e200, 1.0)),
    (ps.ModelParams.from_mode_splitting, (2.0, 1e160)),
    (ps.ModelParams.from_effective_rate, (math.inf, 1.0)),
    (ps.ModelParams.from_effective_rate, (2.0, math.inf)),
    (ps.ModelParams.from_effective_rate, (1e200, 1.0)),
    (ps.ModelParams.from_effective_rate, (2.0, 1e160)),
    (ps.ModelParams, (math.inf, 0.5, 0.6, 0.8)),
    (ps.ModelParams, (2.0, math.inf, 0.6, 0.8)),
    (ps.ModelParams, (1e200, 0.5, 0.6, 0.8)),
    (ps.ModelParams, (2.0, 1e160, 0.6, 0.8)),
])
def test_bad_parameters_rejected(ctor, args):
    with pytest.raises(ps.ParameterError):
        ctor(*args)


@pytest.mark.parametrize("ctor, args", [
    (ps.ModelParams.from_mode_splitting, (1e-200, 5e-201)),
    (ps.ModelParams.from_mode_splitting, (1e-200, 1e-200)),
    (ps.ModelParams.from_effective_rate, (1e-200, 3e-200)),
    (ps.ModelParams.from_effective_rate, (1e-300, 1e-300)),
    (ps.ModelParams, (1e-200, 3e-200, 0.6, 0.8)),
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


@pytest.mark.parametrize("lam, omega", [(1e200, 1.0), (1e155, 1e154)])
def test_mode_splitting_overflow_names_lam_and_omega(lam, omega):
    # R came out inf, and the refusal used to name that coupling, a
    # quantity the caller never gave
    with pytest.raises(ps.ParameterError) as info:
        ps.ModelParams.from_mode_splitting(lam, omega)
    assert str(info.value) == ("rates overflow the damping split lam^2 - "
                               f"4 R^2: lam={lam!r}, omega={omega!r}")


@pytest.mark.parametrize("make, names", [
    (lambda a, b: ps.ModelParams(a, b, 0.6, 0.8), ("lam", "w_coupling")),
    (lambda a, b: ps.ModelParams(a, b, 0.3, 0.9), ("lam", "w_coupling")),
    (ps.ModelParams.from_effective_rate, ("lam", "r_rate")),
    (ps.ModelParams.from_mode_splitting, ("lam", "omega")),
], ids=["record", "couplings", "effective-rate", "mode-splitting"])
def test_columns_that_do_not_broadcast_are_refused(make, names):
    # numpy's raw ValueError used to escape the constructor
    with pytest.raises(ps.ParameterError) as info:
        make(np.array([2.0, 3.0]), np.array([1.0, 1.0, 1.0]))
    assert str(info.value) == ("per-cell columns do not broadcast together: "
                               f"{names[0]} of shape (2,), {names[1]} of "
                               "shape (3,)")


@pytest.mark.parametrize("weights", [
    (np.array([0.6, 0.8]), np.array([0.8, 0.6])), (np.array([0.6, 0.8]), 0.8),
], ids=["both", "one"])
def test_per_cell_weights_are_refused(weights):
    # math.hypot's raw TypeError used to escape: the weights are one pair
    with pytest.raises(ps.ParameterError, match=r"^the coupling weights are "
                       r"one pair for every cell; got alpha1 of shape \(2,\)"):
        ps.ModelParams(2.0, 1.0, *weights)


# constructor -> the cells (lam, second coupling) it takes
_INT_COUPLINGS = {
    "record": (lambda lam, w: ps.ModelParams(lam, w, 0.6, 0.8),
               [(2, 1), (3, 1), (2**32 + 1, 1), (3, 2**32 + 1)]),
    "effective-rate": (ps.ModelParams.from_effective_rate,
                       [(2, 1), (3, 1), (2**32 + 1, 1), (3, 2**32 + 1)]),
    "mode-splitting": (ps.ModelParams.from_mode_splitting,
                       [(2, 1), (3, 1), (2**32 + 1, 1), (2**32 + 1, 2**31)]),
}


@pytest.mark.parametrize("kind", ["int", "int64", "int64-column"])
@pytest.mark.parametrize("ctor", sorted(_INT_COUPLINGS))
def test_integer_couplings_give_the_float_record(ctor, kind):
    # a square past 2**31.5 raised a raw TypeError for a Python int and
    # wrapped for a numpy int64; in float64 it is exact below 2**53
    make, cells = _INT_COUPLINGS[ctor]
    columns = [np.array(column) for column in zip(*cells)]
    if kind == "int64-column":
        records = [(make(*columns), i) for i in range(len(cells))]
    else:
        cast = int if kind == "int" else np.int64
        records = [(make(*map(cast, cell)), None) for cell in cells]
    for (record, i), cell in zip(records, cells):
        want = make(*map(float, cell))
        for name in _FIELDS:
            got = getattr(record, name)
            got = got[i].item() if np.ndim(got) else got
            if name in ("lam", "w_coupling"):
                assert got == getattr(want, name), (cell, name)
            else:
                # repr tells every bit of a float apart
                assert repr(got) == repr(getattr(want, name)), (cell, name)


# constructor of one value -> (its error, the column it names)
_TAKES_A_NUMBER = {
    "record": (lambda v: ps.ModelParams(v, 1.0, 0.6, 0.8), ps.ParameterError,
               "lam"),
    "record-weight": (lambda v: ps.ModelParams(2.0, 1.0, v, 0.8),
                      ps.ParameterError, "alpha1"),
    "effective-rate": (lambda v: ps.ModelParams.from_effective_rate(2.0, v),
                       ps.ParameterError, "r_rate"),
    "mode-splitting": (lambda v: ps.ModelParams.from_mode_splitting(v, 1.0),
                       ps.ParameterError, "lam"),
    "mode-splitting-omega": (
        lambda v: ps.ModelParams.from_mode_splitting(2.0, v),
        ps.ParameterError, "omega"),
    "zeno": (ps.ZenoSchedule, ps.ConfigError, "delta_t"),
    "dd": (ps.DdSchedule, ps.ConfigError, "tau"),
    "finite": (lambda v: ps.FinitePulseSchedule(v, 10), ps.ConfigError,
               "tau"),
    "finite-duty": (lambda v: ps.FinitePulseSchedule(0.2, v), ps.ConfigError,
                    "n_duty"),
}


@pytest.mark.parametrize("value", ["0.1", None, [0.1, 0.2], True],
                         ids=["text", "none", "list", "bool"])
@pytest.mark.parametrize("case", sorted(_TAKES_A_NUMBER))
def test_what_is_not_a_number_is_refused_when_built(case, value):
    # text, None and lists raised raw TypeErrors, and True built as 1
    make, error, name = _TAKES_A_NUMBER[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=rf"^{name} must be a real number or "
                           rf"an array of them; got {type(value).__name__}$"):
            make(value)


@pytest.mark.parametrize("case", sorted(_TAKES_A_NUMBER.keys() - {
    "finite-duty"}))
@pytest.mark.parametrize("value", [10**400, -(2**70)],
                         ids=["past-floats", "past-int64"])
def test_int_past_numpys_integers_is_refused_when_built(case, value):
    # 10**400 raised a raw OverflowError in a record and built a schedule
    # refused only when its cycle was read.  A duty parameter past the float
    # range keeps its own message, tested with the schedule's other
    # refusals
    make, error, name = _TAKES_A_NUMBER[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=rf"^{name} is an int of "
                           rf"{value.bit_length()} bits, past numpy's "
                           r"integers$"):
            make(value)


def test_weight_check_message():
    with pytest.raises(ps.ParameterError, match=r"coupling weights must be "
                       r"positive reals, got \(-0\.6, 0\.8\)"):
        ps.ModelParams(2.0, 0.5, -0.6, 0.8)


def test_decompose_recompose_round_trip(case1):
    phys = ps.PhysicalAmplitudes.initial(0.6, 0.8j)
    state = ps.decompose(phys, case1)
    assert state.norm_sq == pytest.approx(1.0, abs=1e-14)
    back = ps.recompose(state, case1)
    assert back.c10 == pytest.approx(phys.c10, abs=1e-15)
    assert back.c01 == pytest.approx(phys.c01, abs=1e-15)


def test_change_of_basis_is_isometry():
    rng = random.Random(7)
    p = ps.ModelParams(2.0, 0.5, 0.3, 0.9)
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


# ---------------------------------------------------------------------------
# a batch of cells is one record whose fields are per-cell arrays

_FIELDS = ("lam", "w_coupling", "alpha1", "alpha2", "alpha", "r_rate",
           "omega", "branch")
# R / (lam / 2): overdamped, critical, underdamped
_RATIO = st.one_of(st.floats(0.05, 0.95), st.just(1.0), st.floats(1.05, 5.0))


# constructor -> (cells -> its per-cell arguments, scalars alike)
_COLUMN_CTORS = {
    "effective_rate": (ps.ModelParams.from_effective_rate,
                       lambda lam, ratio: (lam, ratio * lam / 2.0)),
    "mode_splitting": (ps.ModelParams.from_mode_splitting,
                       lambda lam, ratio: (lam, min(ratio, 0.999) * lam)),
    "raw": (lambda lam, w: ps.ModelParams(lam, w, 0.6, 0.8),
            lambda lam, ratio: (lam, ratio * lam / 2.0)),
}


@given(ctor=st.sampled_from(sorted(_COLUMN_CTORS)),
       cells=st.lists(st.tuples(st.floats(1e-3, 1e3), _RATIO), min_size=1,
                      max_size=8))
def test_each_cell_of_a_column_record_is_its_own_record(ctor, cells):
    make, arguments = _COLUMN_CTORS[ctor]
    rows = [arguments(*cell) for cell in cells]
    batch = make(*(np.array(column) for column in zip(*rows)))
    for i, row in enumerate(rows):
        alone = make(*row)
        for name in _FIELDS:
            got = getattr(batch, name)
            got = got[i].item() if np.ndim(got) else got
            # repr tells every bit of a float apart, and a numpy scalar from
            # a Python one
            assert repr(got) == repr(getattr(alone, name)), (i, name)
    branches = {alone.branch for alone in map(lambda row: make(*row), rows)}
    assert ctor != "mode_splitting" or ps.BRANCH_UNDERDAMPED not in branches


def test_column_records_reach_every_branch():
    # the property above draws all three branches; pin one record that holds
    # them all
    lam, r_rate = np.full(3, 2.0), np.array([0.8, 1.0, 1.7])
    batch = ps.ModelParams.from_effective_rate(lam, r_rate)
    assert batch.branch.tolist() == [ps.BRANCH_OVERDAMPED, ps.BRANCH_CRITICAL,
                                     ps.BRANCH_UNDERDAMPED]


def _refusal(make, *args):
    """(error type, message) that make(*args) raises, or None."""
    try:
        make(*args)
    except ps.ParityShieldError as exc:
        return type(exc), str(exc)
    return None


# constructor and its per-cell argument columns: later cells fail earlier
# checks, so the refusal is the first failing cell's, not the first check's
# with lam = 1e-150 a root this close gives a subnormal 4 R^2
_SUBNORMAL_SPLIT = 9.99999999998e-151

_COLUMN_REFUSALS = {
    "record": (lambda lam, w: ps.ModelParams(lam, w, _S, _S),
               [[2.0, 1e-150, 2.0, math.inf], [1.0, 1e-156, 1e160, 1.0]]),
    "effective-rate": (ps.ModelParams.from_effective_rate,
                       [[2.0, math.inf, 2.0], [0.5, 1.0, 0.0]]),
    # the classmethod's own checks and the record's are one sequence: the
    # second cell's 4 R^2 is subnormal (a record check), the third's split
    # is not real, the fifth's lam^2 overflows
    "mode-splitting": (ps.ModelParams.from_mode_splitting,
                       [[2.0, 1e-150, 2.0, math.inf, 1e200],
                        [1.0, _SUBNORMAL_SPLIT, 3.0, 1.0, 1.0]]),
    "mode-splitting-own-check-first": (
        ps.ModelParams.from_mode_splitting,
        [[2.0, 2.0, 1e-150], [1.0, 3.0, _SUBNORMAL_SPLIT]]),
    "zeno": (ps.ZenoSchedule, [[0.1, math.nan, -1.0]]),
    "finite-duty": (ps.FinitePulseSchedule,
                    [[0.2, 0.2, -1.0], [10, 1, 10]]),
    "finite-interval": (ps.FinitePulseSchedule,
                        [[0.2, math.inf, 0.2], [10, 10, 1]]),
}


@pytest.mark.parametrize("case", sorted(_COLUMN_REFUSALS))
def test_column_refusal_names_the_first_failing_cell(case):
    make, columns = _COLUMN_REFUSALS[case]
    alone = [_refusal(make, *cell) for cell in zip(*columns)]
    failing = [refusal for refusal in alone if refusal is not None]
    # different cells fail different checks
    assert len(set(failing)) >= 2, alone
    kind, message = failing[0]
    with pytest.raises(kind) as info:
        make(*map(np.array, columns))
    assert str(info.value) == message


# a cycle the closed forms and the oracle would read as two protocols, or
# not at all: a NaN or zero period hung survival, durations that do not
# fill the period were read with the period by the closed forms and their
# sum by the oracle, and the rest raised raw errors or gave NaN
_NOT_A_CYCLE = (r"^a cycle is a real period and a tuple of \(duration, drive "
                r"rate, k\) triples")
_BAD_CYCLES = {
    "nan-period": ((math.nan, ((0.1, 0.0, -1.0),)),
                   r"^cycle period must be finite and positive, got nan$"),
    "zero-period": ((0.0, ((0.0, 0.0, -1.0),)),
                    r"^cycle period must be finite and positive, got 0\.0$"),
    "inf-period": ((math.inf, ((0.1, 0.0, -1.0),)), r"^cycle period must"),
    "text-period": (("0.1", ((0.1, 0.0, -1.0),)), _NOT_A_CYCLE),
    # once read as x = 1 at every time by the closed forms
    "empty": ((0.1, ()), r"^a cycle needs at least one segment$"),
    "short-fill": ((0.2, ((0.1, 0.0, -1.0),)),
                   r"^segment durations sum to 0\.1, which does not fill "
                   r"the cycle period 0\.2$"),
    "long-fill": ((0.1, ((0.1, 0.0, 1.0), (0.1, 0.0, -1.0))),
                  r"^segment durations sum to 0\.2"),
    "zero-segment": ((0.1, ((0.1, 0.0, 1.0), (0.0, 0.0, -1.0))),
                     r"^segment duration must be finite and positive, got "
                     r"0\.0$"),
    "negative-segment": ((0.1, ((0.2, 0.0, 1.0), (-0.1, 0.0, 1.0))),
                         r"^segment duration must be finite and positive"),
    "pair": ((0.1, ((0.1, 0.0),)), _NOT_A_CYCLE),
    "list-segment": ((0.1, ([0.1, 0.0, -1.0],)), _NOT_A_CYCLE),
    "list-segments": ((0.1, [(0.1, 0.0, -1.0)]), _NOT_A_CYCLE),
    "bool-duration": ((0.1, ((True, 0.0, -1.0),)), _NOT_A_CYCLE),
    "complex-rate": ((0.1, ((0.1, 1j, 1.0),)), _NOT_A_CYCLE),
    "per-cell-k": ((0.1, ((0.1, 0.0, np.array([1.0, -1.0])),)),
                   _NOT_A_CYCLE),
    "nan-rate": ((0.1, ((0.1, math.nan, 1.0),)),
                 r"^drive rate must be finite, got nan$"),
    "inf-k": ((0.1, ((0.1, 0.0, math.inf),)),
              r"^segment end k must be finite, got inf$"),
    "nan-complex-k": ((0.1, ((0.1, 0.0, complex(math.nan, 1.0)),)),
                      r"^segment end k must be finite"),
    "columns": ((np.ones(2), ((np.ones(3), 0.0, -1.0),)),
                r"^per-cell columns do not broadcast together: period of "
                r"shape \(2,\), segment 0 duration of shape \(3,\)$"),
    "overflowing-sum": ((1e308, ((1e308, 0.0, 1.0), (1e308, 0.0, 1.0))),
                        r"^segment durations sum to inf"),
    "batch-names-first-cell": (
        (np.array([0.1, 0.2, 0.3]),
         ((np.array([0.1, 0.1, 0.0]), 0.0, -1.0),)),
        r"^segment durations sum to 0\.1, which does not fill the cycle "
        r"period 0\.2$"),
}


@pytest.mark.parametrize("case", sorted(_BAD_CYCLES))
def test_cycle_refuses_a_bad_cycle_when_built(case):
    (period, segments), message = _BAD_CYCLES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ps.ParameterError, match=message):
            ps.model.Cycle(period, segments)


def test_schedule_builds_its_cycle_once():
    assert ps.transfer.Cycle is ps.model.Cycle
    # every cycle the package builds fills its period
    for sched in (ps.ZenoSchedule(0.1), ps.DdSchedule(0.3),
                  ps.FinitePulseSchedule(0.7, 3), ps.FinitePulseSchedule(
                      np.array([0.2, 0.3]), np.array([10, 7]))):
        assert isinstance(sched.cycle, ps.model.Cycle)
        assert sched.cycle is sched.cycle


@pytest.mark.parametrize("tau, n_duty, message", [
    # half of the smallest subnormal rounds to 0: the window has no length
    (5e-324, 2, r"^cycle interval 5e-324 leaves the window tau/N of duty "
     r"parameter 2 no length$"),
    (1e-310, 2, r"^cycle interval 1e-310 with duty parameter 2 gives a drive "
     r"rate N pi / tau past the float range$"),
    (1e-300, 10**9, r"^cycle interval 1e-300 with duty parameter 1000000000 "
     r"gives a drive rate"),
    # a Python int past the float range: no window, and no float N
    (0.2, 10**400, r"^cycle interval 0\.2 leaves the window tau/N of duty "
     r"parameter 10{400} no length$"),
    # numpy arithmetic, which would warn on the overflow
    (np.float64(1e-310), np.int64(2), r"^cycle interval 1e-310 with duty "
     r"parameter 2 gives"),
    # a batch names its first bad cell, whichever check it fails
    (np.array([0.2, 1e-310, 5e-324]), 2, r"^cycle interval 1e-310 with duty "
     r"parameter 2 gives"),
    (np.array([0.2, 5e-324, 1e-310]), np.array([3, 2, 2]),
     r"^cycle interval 5e-324 leaves"),
    (0.2, np.array([2, 10**9]), None),
], ids=["no-window", "rate-overflow", "large-n", "n-past-floats",
        "numpy-scalars", "batch-rate", "batch-window", "batch-usable"])
def test_schedule_with_an_unusable_tau_is_refused_when_built(tau, n_duty,
                                                            message):
    # refused as the other interval checks are, and without a warning from
    # the batch's rate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if message is None:
            sched = ps.FinitePulseSchedule(tau, n_duty)
            assert np.all(np.isfinite(sched.phase_rate))
            assert isinstance(sched.cycle, ps.model.Cycle)
            return
        with pytest.raises(ps.ConfigError, match=message):
            ps.FinitePulseSchedule(tau, n_duty)


_ENTRIES = {
    "survival": lambda s, p: ps.survival(1.0, s, p),
    "fidelity": lambda s, p: ps.fidelity(ps.OddParityState.dark(), 1.0, s, p),
    "coefficients": lambda s, p: ps.coefficients(3, s, p),
    "integrate-augmented": lambda s, p: ps.integrate(
        p, s, 1.0, ps.OracleConfig(1e-3)),
    "integrate-quadrature": lambda s, p: ps.integrate(
        p, s, 1.0, ps.OracleConfig(1e-3, 2, ps.DIRECT_QUADRATURE)),
}


@pytest.mark.parametrize("cycle, message", [
    (lambda: (0.1, ((0.1, 0.0, -1.0),)),
     r"^a schedule's cycle must be a Cycle; got tuple$"),
    (lambda: "dd(0.1)", r"^a schedule's cycle must be a Cycle; got str$"),
    (lambda: ps.model.Cycle(0.1, ()), r"^a cycle needs at least one segment$"),
], ids=["tuple", "text", "empty"])
@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_a_schedule_needs_a_cycle(case1, entry, cycle, message):
    # both sides read a schedule through its Cycle: anything else raised a
    # raw AttributeError or ValueError, and an empty cycle, once evaluated by
    # the closed forms, is refused when built, before any entry sees it
    with pytest.raises(ps.ParameterError, match=message):
        _ENTRIES[entry](SimpleNamespace(cycle=cycle()), case1)
