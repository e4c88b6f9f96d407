"""Shared fixtures: small acquisition setups sized for exact oracle checks."""

from dataclasses import replace

import numpy as np
import pytest

from pwrecon import (
    ApodizationSpec,
    ChannelData,
    ImagingGrid,
    PlaneWaveTx,
    ProbeGeometry,
    build_system_matrix,
    suggest_time_window,
)


def channel_data(model, vec):
    """The ChannelData whose ``to_vector()`` is ``vec``, a flat vector of
    ``model``'s rows, recorded with the model's transmit and probe."""
    samples = np.reshape(vec, (model.num_time_samples, model.probe.num_elements), order="F")
    return ChannelData(samples, tx=model.tx, probe=model.probe)


@pytest.fixture(scope="session")
def tiny_probe():
    return ProbeGeometry(
        num_elements=8,
        pitch=0.3e-3,
        sound_speed=1540.0,
        sampling_freq=20.832e6,
        center_freq=5.208e6,
    )


@pytest.fixture(scope="session")
def tiny_grid(tiny_probe):
    return ImagingGrid.for_probe(tiny_probe, nz=16, nx=16, z_origin=2.0e-3)


@pytest.fixture(scope="session")
def tiny_tx():
    return PlaneWaveTx(angle=0.0)


@pytest.fixture(scope="session")
def tiny_apod():
    return ApodizationSpec(window="hanning", f_number=0.5)


@pytest.fixture(scope="session")
def tiny_instance(tiny_probe, tiny_grid, tiny_tx, tiny_apod):
    """16x16 grid, 8 elements, 64 samples: the exact-oracle instance."""
    t0, _ = suggest_time_window(tiny_probe, tiny_grid, tiny_tx)
    probe = replace(tiny_probe, t0_offset=t0)
    model = build_system_matrix(probe, tiny_grid, tiny_tx, 64, tiny_apod)
    return {
        "probe": probe,
        "grid": tiny_grid,
        "tx": tiny_tx,
        "apod": tiny_apod,
        "num_samples": 64,
        "model": model,
    }


@pytest.fixture(scope="session")
def covered_instance(tiny_probe, tiny_tx):
    """Small instance whose time window covers the whole grid (well-posed
    least squares): used for solver-vs-dense oracles."""
    grid = ImagingGrid.for_probe(tiny_probe, nz=16, nx=16, z_origin=2.0e-3)
    t0, num = suggest_time_window(tiny_probe, grid, tiny_tx)
    probe = replace(tiny_probe, t0_offset=t0)
    apod = ApodizationSpec(window="hanning", f_number=0.5)
    model = build_system_matrix(probe, grid, tiny_tx, num, apod)
    return {
        "probe": probe,
        "grid": grid,
        "tx": tiny_tx,
        "apod": apod,
        "num_samples": num,
        "model": model,
    }


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
