"""Serving-suite fixtures."""

import pytest

from repro.faults import clear_injector, install_plan


@pytest.fixture()
def stall_groups():
    """``stall_groups(delay_ms)``: every served group sleeps first.

    A ``task-slow`` rule on the ``serve/*`` fault sites, so requests stay
    queued or in flight for as long as a test needs; cleared at teardown.
    """

    def install(delay_ms: float) -> None:
        install_plan({
            "schema": "repro.faults/v1", "seed": 0, "rules": [
                {"kind": "task-slow", "stage": "serve/*",
                 "delay_ms": delay_ms},
            ],
        })

    yield install
    clear_injector()
