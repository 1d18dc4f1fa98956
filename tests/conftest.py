from __future__ import annotations

import argparse

import pytest
from hypothesis import settings

import parityshield as ps
from parityshield.cli import build_parser

# property tests draw the same examples on every run and never time out
# on a slow or shared host; no example database is written
settings.register_profile("parityshield", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("parityshield")

# canonical comparison point: lam = 2, real split omega = 1, R = sqrt(3)/2
CASE1_TAU = 0.1
CASE2_TAU = 0.2


@pytest.fixture(scope="session")
def case1():
    return ps.ModelParams.from_mode_splitting(2.0, 1.0)


@pytest.fixture(scope="session")
def subcommands():
    """Subcommand name -> its argument parser."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


@pytest.fixture(scope="session")
def cfg_aug():
    return ps.OracleConfig(dt_num=1e-4, method_order=4,
                           history_mode=ps.EXACT_AUGMENTED)


@pytest.fixture(scope="session")
def cfg_quad():
    return ps.OracleConfig(dt_num=1e-4, method_order=2,
                           history_mode=ps.DIRECT_QUADRATURE)


@pytest.fixture(scope="session")
def free_trace_aug(case1, cfg_aug):
    return ps.integrate_free(case1, 1.0, cfg_aug)


@pytest.fixture(scope="session")
def free_trace_quad(case1, cfg_quad):
    return ps.integrate_free(case1, 1.0, cfg_quad)


@pytest.fixture(scope="session")
def dd_trace_aug(case1, cfg_aug):
    return ps.integrate_dd(case1, ps.DdSchedule(CASE1_TAU), 1.0, cfg_aug)
