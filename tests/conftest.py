import threading

import pytest

import overcong.prover as prover
from overcong import modseries


@pytest.fixture(autouse=True)
def _reset_store(monkeypatch):
    # Every test starts from the process's own thread setting, whatever
    # --threads the test before it passed to cli.main.
    monkeypatch.setattr(modseries, "_SHARE", modseries._SHARE)
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


@pytest.fixture
def pool_tasks(monkeypatch):
    """The name of the pool thread (modseries*) that ran each task a solve
    step shared through _pool_map; tasks the caller ran are left out."""
    names = []
    real_pool_map = modseries._pool_map

    def recording_pool_map(fn, items):
        def task(x):
            name = threading.current_thread().name
            if name.startswith("modseries"):
                names.append(name)
            return fn(x)
        return real_pool_map(task, items)

    monkeypatch.setattr(modseries, "_pool_map", recording_pool_map)
    return names
