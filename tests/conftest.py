"""Shared test helpers and the acceptance-report hook."""

from dataclasses import fields, is_dataclass

import numpy as np
import pytest


def crandn(rng, *shape):
    """Circularly-symmetric complex normal samples with unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def same(a, b) -> bool:
    """Whether two values match in type and in every bit, field by field
    through dataclasses and tuples."""
    if type(a) is not type(b):
        return False
    if is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture
def rng():
    return np.random.default_rng(20250817)


# Lines recorded by the acceptance tests; re-emitted after the run so the
# verdicts stay visible even though pytest captures stdout.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
