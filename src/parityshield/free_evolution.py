"""Closed-form free decay of the odd-parity state.

The dark amplitude is frozen; the superradiant amplitude is multiplied by a
real survival factor obeying x'' + lam x' + R^2 x = 0 with x(0) = 1,
x'(0) = 0.  The three damping branches give hyperbolic, polynomial, and
trigonometric envelopes that join continuously; all of them come from the
one propagator in ``transfer``.
"""

from __future__ import annotations

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


def free_fidelity(state0: OddParityState, t, params: ModelParams):
    """Modulus of the overlap between the initial and the evolved state."""
    return evaluate(t, params, None, overlap(state0))
