import numpy as np
import pytest

from exact_uncertainty.grids import (
    GridSpec,
    fourier_interpolate,
    local_derivative,
    real_derivative_axis,
    spectral_derivative,
    spectral_derivative_axis,
)


def test_grid_spec_invariants(grid):
    assert grid.dx == pytest.approx(40.0 / 1024)
    assert grid.momentum_spacing(hbar=1.0) == pytest.approx(2 * np.pi / (1024 * grid.dx))
    assert grid.momentum_spacing(hbar=0.5) == pytest.approx(np.pi / (1024 * grid.dx))
    p = grid.conjugate_grid().points()
    assert p[1] - p[0] == pytest.approx(grid.momentum_spacing())
    assert np.all(np.diff(p) > 0)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(7, 0.0, 1.0)
    with pytest.raises(ValueError):
        GridSpec(16, 1.0, 1.0)


def test_derivative_exact_fourier_mode(grid):
    x = grid.points()
    length = grid.length
    f = np.sin(2 * np.pi * x / length)
    expected = (2 * np.pi / length) * np.cos(2 * np.pi * x / length)
    assert np.max(np.abs(spectral_derivative(f, grid) - expected)) < 1e-10


def test_derivative_gaussian_closed_form(grid):
    # psi = exp(-x^2 / 4 sigma^2) has psi' = -(x / 2 sigma^2) psi
    sigma = 1.2
    x = grid.points()
    f = np.exp(-(x ** 2) / (4 * sigma ** 2))
    closed = -(x / (2 * sigma ** 2)) * f
    spectral = np.real(spectral_derivative(f, grid))
    assert np.max(np.abs(spectral - closed)) < 1e-8 * np.max(np.abs(closed))
    # finite differences as the independent oracle
    fd = local_derivative(f, grid.dx)
    assert np.max(np.abs(spectral - fd)) < 1e-3


def test_derivative_constant_is_zero(grid):
    out = spectral_derivative(np.ones(grid.n_points), grid)
    assert np.max(np.abs(out)) < 1e-12


def test_fourier_interpolation_is_exact_at_nodes_and_modes():
    grid = GridSpec(64, 0.0, 2 * np.pi)
    x = grid.points()
    f = np.exp(1j * 3 * x) + 0.5 * np.exp(-1j * 5 * x)
    fine = fourier_interpolate(f, 2)
    assert np.max(np.abs(fine[::2] - f)) < 1e-12
    x_fine = np.arange(128) * np.pi / 64
    exact = np.exp(1j * 3 * x_fine) + 0.5 * np.exp(-1j * 5 * x_fine)
    assert np.max(np.abs(fine - exact)) < 1e-12


@pytest.mark.parametrize("axis", [0, 1])
def test_real_derivative_axis_matches_complex_kernel(axis):
    gx, gy = GridSpec(64, -8.0, 8.0), GridSpec(96, -10.0, 10.0)
    x, y = gx.points()[:, None], gy.points()[None, :]
    values = np.exp(-(x - 0.3) ** 2 / 2.0 - (y + 0.5) ** 2 / 3.0 - 0.4 * x * y) \
        * (1.0 + 0.3 * np.cos(x + 2.0 * y))
    grid = (gx, gy)[axis]
    got = real_derivative_axis(values, grid, axis=axis)
    expected = np.real(spectral_derivative_axis(values, grid, axis=axis))
    assert got.dtype == np.float64
    assert got.shape == values.shape
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_row_blocks_rule(monkeypatch):
    from exact_uncertainty import grids, wigner

    for n in (384, 1536, 5120):
        blocks = list(grids.row_blocks(n, n))
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        for rows in blocks:
            n_rows = rows.stop - rows.start
            assert n_rows <= grids.BLOCK_ROWS
            assert 16 * n_rows * n <= grids.BLOCK_BYTES
    # the row cap splits a small grid that the byte budget would keep whole
    assert len(list(grids.row_blocks(384, 384))) > 1
    # a given budget replaces BLOCK_BYTES: the Wigner slice rows at n = 1024
    steps = {rows.stop - rows.start
             for rows in grids.row_blocks(1024, 513, budget=wigner.SLICE_BLOCK_BYTES)}
    assert steps == {63, 1024 % 63}
    # a smaller byte budget still wins under the cap
    monkeypatch.setattr(grids, "BLOCK_BYTES", 64 << 10)
    assert {rows.stop - rows.start for rows in grids.row_blocks(1536, 1536)} == {2}


@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pooled"])
def test_density_derivative_columns_is_the_whole_matrix_transform(pooled, block_pool,
                                                                  monkeypatch):
    from exact_uncertainty import grids

    rng = np.random.default_rng(4)
    gx = GridSpec(200, -6.0, 6.0)
    values = rng.normal(size=(200, 300)) + 1j * rng.normal(size=(200, 300))
    # 300 columns in blocks of 21, the last one narrower
    monkeypatch.setattr(grids, "BLOCK_BYTES", 16 * 200 * 21)
    if pooled:
        block_pool()
    p = np.abs(values) ** 2
    got, peak = grids.density_derivative_columns(values, gx)
    assert (grids._pool is not None) == pooled
    assert np.array_equal(got, real_derivative_axis(p, gx, axis=0))
    assert peak == p.max()


def test_block_map_lends_each_buffer_set_to_one_block(block_pool):
    import sys

    from exact_uncertainty import grids

    def claim(block, buffers):
        # a buffer set shared by two running blocks loses one of their marks
        buffers[0][0] = block
        np.fft.fft(buffers[1])  # releases the GIL
        return int(buffers[0][0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = list(grids.block_map(claim, range(400), 2,
                                   lambda: (np.zeros(1), np.zeros(4096, complex))))
    finally:
        sys.setswitchinterval(interval)
    assert got == list(range(400))
