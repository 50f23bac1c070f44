import pytest

import overcong.prover as prover
from overcong import modseries


@pytest.fixture(autouse=True)
def _reset_store():
    yield
    prover.STORE.reset()


@pytest.fixture
def solver_outputs(monkeypatch):
    """Every array the solver core returns, in the order its solves end."""
    solved = []
    real_solve = modseries._solve_linear_core

    def recording_solve(*args):
        solved.append(real_solve(*args))
        return solved[-1]

    monkeypatch.setattr(modseries, "_solve_linear_core", recording_solve)
    return solved
