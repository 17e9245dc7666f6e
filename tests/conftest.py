import pytest

from bipotkit import kernels


@pytest.fixture
def pred_checks(monkeypatch):
    """A list that grows by one at every predecessor check, i.e. every call
    of ``kernels.pred_cycles`` (the Bellman-Ford checks and the witness)."""
    calls = []
    find = kernels.pred_cycles
    monkeypatch.setattr(kernels, "pred_cycles", lambda pred: calls.append(pred) or find(pred))
    return calls
