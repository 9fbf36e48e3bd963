import numpy as np
import pytest

from exact_uncertainty.grids import GridSpec
from exact_uncertainty.states import GridPureState


def from_momentum(state: GridPureState, xgrid: GridSpec) -> GridPureState:
    """Inverse of ``states.to_momentum`` back onto the position grid ``xgrid``."""
    hbar = state.constants.hbar
    tilde = np.fft.ifftshift(state.amplitudes)
    phases = np.exp(1j * xgrid.wavenumbers() * xgrid.x_min)
    amps = np.fft.ifft(tilde * phases) * np.sqrt(2.0 * np.pi * hbar) / xgrid.dx
    return GridPureState(xgrid, amps, state.constants)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture
def grid():
    return GridSpec(1024, -20.0, 20.0)


@pytest.fixture
def block_pool(monkeypatch):
    """No block pool made yet; calling the fixture's value sends the block
    passes to two threads on any grid and any host.  A pool the test makes
    is shut down after it."""
    from exact_uncertainty import grids

    monkeypatch.setattr(grids, "_pool", None)

    def force():
        monkeypatch.setattr(grids, "POOL_BYTES", 0)
        monkeypatch.setattr(grids.os, "sched_getaffinity", lambda pid: {0, 1})

    yield force
    if grids._pool is not None:
        grids._pool.shutdown()
