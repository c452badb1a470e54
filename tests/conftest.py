"""Shared fixtures: small datasets and pre-built indices.

Index builds are session-scoped — they are deterministic and read-only for
every test that uses them, and rebuilding per test would dominate suite
runtime.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baseline import DpisaxConfig, build_dpisax_index
from repro.core import TardisConfig, build_tardis_index
from repro.tsdb import random_walk


SMALL_N = 3000
SMALL_LENGTH = 64


@pytest.fixture(scope="session")
def small_config() -> TardisConfig:
    return TardisConfig(g_max_size=300, l_max_size=30, pth=4)


@pytest.fixture(scope="session")
def small_baseline_config() -> DpisaxConfig:
    return DpisaxConfig(g_max_size=300, l_max_size=30)


@pytest.fixture(scope="session")
def rw_small():
    """3000 z-normalized random-walk series of length 64."""
    return random_walk(SMALL_N, length=SMALL_LENGTH, seed=42).z_normalized()


@pytest.fixture(scope="session")
def heldout_queries() -> np.ndarray:
    """Query series from the same distribution, not in ``rw_small``."""
    return random_walk(40, length=SMALL_LENGTH, seed=999).z_normalized().values


@pytest.fixture(scope="session")
def tardis_small(rw_small, small_config):
    return build_tardis_index(rw_small, small_config)


@pytest.fixture(scope="session")
def dpisax_small(rw_small, small_baseline_config):
    return build_dpisax_index(rw_small, small_baseline_config)


@pytest.fixture()
def tear_last_frame():
    """``tear_last_frame(path, start, how)``: damage the WAL frame that
    starts at byte ``start`` and ends the file, as a crash mid-write
    leaves it — cut inside its 9-byte header, cut halfway through its
    body, or whole but with one body bit flipped (its CRC fails).  The
    three ``how`` values are ``tear_last_frame.ways``."""

    def tear(path, start: int, how: str) -> None:
        raw = bytearray(path.read_bytes())
        body = start + 9
        if how == "mid-header":
            raw = raw[:start + 4]
        elif how == "mid-body":
            raw = raw[:body + (len(raw) - body) // 2]
        elif how == "crc-flip":
            raw[body + (len(raw) - body) // 2] ^= 0x10
        else:
            raise ValueError(f"unknown tear {how!r}")
        path.write_bytes(bytes(raw))

    tear.ways = ("mid-header", "mid-body", "crc-flip")
    return tear
