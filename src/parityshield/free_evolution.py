"""Closed-form free decay of the odd-parity state.

The dark amplitude is frozen; the superradiant amplitude is multiplied by a
real survival factor obeying x'' + lam x' + R^2 x = 0 with x(0) = 1,
x'(0) = 0.  The three damping branches give hyperbolic, polynomial, and
trigonometric envelopes that join continuously; all of them come from the
one propagator in ``transfer``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModelParams, OddParityState
from .transfer import evaluate, overlap


def free_survival(t, params: ModelParams):
    """Survival factor of the superradiant amplitude after time t.

    Real on every branch; equals 1 at t = 0, stays in [-1, 1], and is
    strictly positive in the overdamped and critical regimes.  t is a
    float or a sequence of times (giving a list).
    """
    return evaluate(t, params, None, lambda x, *_: x.real)


def free_survival_slope(t, params: ModelParams):
    """Time derivative of free_survival.  Zero at t = 0 on every branch."""
    return evaluate(t, params, None, lambda x, xd, *_: xd.real)


@dataclass(frozen=True)
class FreeEvolutionResult:
    """State at time t plus the population leaked into the reservoir."""

    state_t: OddParityState
    leak_population: float


def free_evolve(state0: OddParityState, t: float,
                params: ModelParams) -> FreeEvolutionResult:
    """Propagate an odd-parity state freely for time t.

    The leaked population is the weight transferred to the ground state
    with one reservoir photon; excitation-number conservation fixes it as
    the lost system norm, so

        |beta1|^2 + |beta2(t)|^2 + leak == |beta1|^2 + |beta2(0)|^2

    holds to rounding.
    """
    s = free_survival(t, params)
    beta2_t = state0.beta2 * s
    leak = abs(state0.beta2) ** 2 * (1.0 - s * s)
    return FreeEvolutionResult(OddParityState(state0.beta1, beta2_t), leak)


def free_fidelity(state0: OddParityState, t, params: ModelParams):
    """Modulus of the overlap between the initial and the evolved state."""
    return evaluate(t, params, None, overlap(state0))
