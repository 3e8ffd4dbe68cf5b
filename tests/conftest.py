from __future__ import annotations

import os

import pytest

import ibcslab
from ibcslab.ibcs import arg_setup
from ibcslab.toys import (
    complete_graph,
    find_coloring,
    gc_pcp,
    petersen_graph,
    sumcheck_iop,
)

from helpers import make_sumcheck

# The CLI tests start `python -m ibcslab.cli` in subprocesses, which must
# import the package these tests import, however pytest found it.
_SRC = os.path.dirname(os.path.dirname(ibcslab.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def k3():
    return complete_graph(3)


@pytest.fixture(scope="session")
def k4():
    return complete_graph(4)


@pytest.fixture(scope="session")
def petersen():
    return petersen_graph()


@pytest.fixture(scope="session")
def k3_setup(k3):
    protocol = gc_pcp(k3)
    params = arg_setup(128, 64, protocol.spec)
    return protocol, params, find_coloring(k3)


@pytest.fixture(scope="session")
def k4_setup(k4):
    protocol = gc_pcp(k4)
    params = arg_setup(128, 64, protocol.spec)
    return protocol, params


@pytest.fixture(scope="session")
def sumcheck_true():
    return make_sumcheck()


@pytest.fixture(scope="session")
def sumcheck_false():
    return make_sumcheck(false_claim=True)


@pytest.fixture(scope="session")
def sumcheck_true_setup(sumcheck_true):
    protocol = sumcheck_iop(sumcheck_true)
    params = arg_setup(128, 64, protocol.spec)
    return protocol, params
