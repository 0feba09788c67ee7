"""Fixtures shared across test modules."""

import time
from typing import NamedTuple

import pytest

from gradcast.rationals import IrredStrategy, cast_rat


class RatGrid(NamedTuple):
    casts: dict  # (strategy, top, bottom) -> what cast_rat returned
    seconds: float  # how long the sweep took


@pytest.fixture(scope="session")
def rat_grid() -> RatGrid:
    """``cast_rat(bool(top % 2), top, bottom, strategy=strategy)`` for every
    strategy and every top and bottom in 0..40, cast once for the session: the
    bounded strategy's unary sweep is the slowest work in the suite, and
    criterion 3 and the invariant test both read it."""
    started = time.perf_counter()
    casts = {
        (strategy, top, bottom): cast_rat(bool(top % 2), top, bottom, strategy=strategy)
        for strategy in IrredStrategy
        for top in range(41)
        for bottom in range(41)
    }
    return RatGrid(casts, time.perf_counter() - started)
