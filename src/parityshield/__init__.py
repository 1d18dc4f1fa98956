"""Decay protection for odd-parity two-qubit states in a shared reservoir.

The package models a pair of qubits coupled to one zero-temperature
reservoir with an exponentially decaying correlation kernel.  In the
single-excitation odd-parity sector the dynamics closes on two collective
amplitudes: a dark one that never decays and a bright one whose survival
amplitude obeys a damped second-order interval equation.  Three protection
protocols are implemented in closed form and each is cross-checked against
a brute-force memory-kernel integrator:

* free evolution (no intervention),
* repeated projective measurement onto the initial state,
* periodic double-pi phase pulses, instantaneous or of finite duration.
"""

from ._version import __version__
from .errors import (ConfigError, ParameterError, ParityShieldError,
                     StateError, ValidationFailure)
from .model import (BRANCH_CRITICAL, BRANCH_OVERDAMPED, BRANCH_UNDERDAMPED,
                    ModelParams, OddParityState, PhysicalAmplitudes,
                    apply_double_pi_pulse, decompose, recompose)
from .oracle import (DIRECT_QUADRATURE, EXACT_AUGMENTED, OracleConfig,
                     OracleTrace, integrate, integrate_dd,
                     integrate_finite, integrate_free)
from .scenarios import (EvolutionTrace, ScenarioConfig, build_scenario,
                        check_fig2_ordering, check_fig3_ordering,
                        compute_trace, dump_config, format_schedule,
                        load_config, parse_initial_state, parse_schedule,
                        run_sweep, time_grid)
from .transfer import (FREE_SEGMENT, IN_PULSE_SEGMENT, DdSchedule,
                       FinitePulseSchedule, RecursionCoeffs, ZenoSchedule,
                       coefficients, dd_coefficients, dd_fidelity,
                       dd_survival, fidelity, finite_dd_coefficients,
                       finite_dd_fidelity, finite_dd_survival, free_fidelity,
                       free_survival, free_survival_slope, survival,
                       zeno_amplitude, zeno_fidelity)
from .validation import CheckResult, ValidationReport, run_validation

__all__ = [
    "__version__",
    "BRANCH_CRITICAL", "BRANCH_OVERDAMPED", "BRANCH_UNDERDAMPED",
    "ModelParams", "OddParityState", "PhysicalAmplitudes",
    "apply_double_pi_pulse", "decompose", "recompose",
    "ParityShieldError", "ConfigError", "ParameterError", "StateError",
    "ValidationFailure",
    "survival", "fidelity", "coefficients",
    "free_survival", "free_survival_slope", "free_fidelity",
    "ZenoSchedule", "zeno_amplitude", "zeno_fidelity",
    "DdSchedule", "RecursionCoeffs", "dd_coefficients", "dd_survival",
    "dd_fidelity",
    "FinitePulseSchedule", "FREE_SEGMENT", "IN_PULSE_SEGMENT",
    "finite_dd_coefficients", "finite_dd_survival", "finite_dd_fidelity",
    "OracleConfig", "OracleTrace", "EXACT_AUGMENTED", "DIRECT_QUADRATURE",
    "integrate", "integrate_free", "integrate_dd", "integrate_finite",
    "ScenarioConfig", "EvolutionTrace", "build_scenario", "compute_trace",
    "time_grid", "parse_schedule", "format_schedule", "parse_initial_state",
    "load_config", "dump_config", "run_sweep", "check_fig2_ordering",
    "check_fig3_ordering",
    "CheckResult", "ValidationReport", "run_validation",
]
