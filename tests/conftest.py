import pytest

from ffspread import decoder


@pytest.fixture
def cpu_share(monkeypatch):
    """Sets the usable CPUs per process, and so the sampling threads."""
    if not decoder._pin_blas():
        pytest.skip("no OpenBLAS to pin: Monte-Carlo sampling stays serial")

    def set_share(n: int) -> None:
        monkeypatch.setattr(decoder, "_cpu_share", lambda: n)
        assert decoder._task_threads(n) == n
    return set_share
