"""Shared fixtures for the test suite."""

import pytest

from repro.config import ArchConfig, DEFAULT_CONFIG
from repro.core.ir import AddressSpaceAllocator
from repro.workloads.kernels import SidCounter
from repro.workloads.tracegen import clear_cache


@pytest.fixture
def cfg() -> ArchConfig:
    """The paper's Table 1 configuration."""
    return DEFAULT_CONFIG


@pytest.fixture
def small_cfg() -> ArchConfig:
    """A 3x3-mesh variant for fast structural tests."""
    return DEFAULT_CONFIG.with_mesh(3, 3)


@pytest.fixture
def alloc() -> AddressSpaceAllocator:
    return AddressSpaceAllocator(base=1 << 22)


@pytest.fixture
def sid() -> SidCounter:
    return SidCounter()


class FakeClock:
    """An advanceable clock for lease-expiry tests (inject as the
    claim queue's / server's ``clock=``) — no sleeping required."""

    def __init__(self, t: float = 1_000.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def fake_clock() -> FakeClock:
    return FakeClock()


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    """Keep the tracegen cache from leaking state across tests that
    monkeypatch pass behaviour."""
    yield
    clear_cache()


class _CreatesFile:
    """Unpickling this object calls ``open(path, "w")``: the file
    appearing is proof that some reader ran a peer's pickle."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


@pytest.fixture
def code_running_pickle(tmp_path):
    """``(payload, marker)``: pickle bytes whose loading creates
    ``marker`` (checked here on a control path, so the payload is known
    to run code when unpickled)."""
    import pickle

    control = tmp_path / "control-marker"
    pickle.loads(pickle.dumps(_CreatesFile(control))).close()
    assert control.exists(), "the payload must run code when unpickled"
    marker = tmp_path / "pickle-ran-here"
    return pickle.dumps(_CreatesFile(marker)), marker
