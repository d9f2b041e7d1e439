import numpy as np
import pytest

import cshiftlab as cl
from cshiftlab.rhp import ChiSolution, OperatorFactory, solve_beta


@pytest.fixture(scope="session")
def pd_default():
    """The default problem: constant symbol 0.2, identity phase, [-1, 1]."""
    return cl.make_problem(a=-1.0, b=1.0, c=1.0, t=1.0, x=10.0,
                           F=cl.constant_symbol(0.2), p=cl.identity_phase())


@pytest.fixture(scope="session")
def grid48(pd_default):
    return cl.laguerre_halfline(48, pd_default.c)


@pytest.fixture(scope="session")
def srh_default(pd_default):
    return cl.ScalarRH(pd_default)


@pytest.fixture(scope="session")
def loop_default(pd_default):
    return cl.stadium_contour(pd_default.a, pd_default.b, 0.25)


@pytest.fixture(scope="session")
def chi_default(pd_default, grid48):
    return ChiSolution(pd_default, grid=grid48)


@pytest.fixture(scope="session")
def betas_default(pd_default, grid48, srh_default):
    rule = cl.gauss_interval(192, pd_default.a, pd_default.b)
    return {k: solve_beta(pd_default, rule, grid48, k, srh_default)
            for k in (1, 2)}


@pytest.fixture(scope="session")
def factory_default(pd_default, grid48, srh_default, betas_default):
    return OperatorFactory(pd_default, grid48, srh_default,
                           betas_default[1], betas_default[2])


@pytest.fixture(scope="session")
def pd_zero():
    """Vanishing symbol: every kernel collapses and dets are 1."""
    return cl.make_problem(a=-1.0, b=1.0, c=1.0, t=1.0, x=10.0,
                           F=cl.constant_symbol(0.0), p=cl.identity_phase())
