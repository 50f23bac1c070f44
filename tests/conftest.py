import pytest

import overcong.prover as prover


@pytest.fixture(autouse=True)
def _reset_store():
    yield
    prover.STORE.reset()
