"""The benchmark's traced run wraps package functions where their callers
look them up (``perfbench/tracing.py``). A refactor that drops or renames
one of those names leaves the traced run reporting ``null`` for every
metric behind it, so each wrap point must resolve."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import wrap_points  # noqa: E402

POINTS = wrap_points()


@pytest.mark.parametrize("point", POINTS, ids=[
    f"{p.module}.{p.cls + '.' if p.cls else ''}{p.attr}" for p in POINTS])
def test_every_wrap_point_resolves(point):
    owner = point.resolve()
    assert owner is not None, point
    assert point.attr in vars(owner), point
