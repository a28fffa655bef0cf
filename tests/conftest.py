import sys
from pathlib import Path

import pytest

from collatzstop import core

# make reference_tables importable regardless of the invocation directory
sys.path.insert(0, str(Path(__file__).parent))


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "step_cap(cap): run the test with core.DEFAULT_STEP_CAP, the one walk cap, at cap")


@pytest.fixture(autouse=True)
def _step_cap(request, monkeypatch):
    """Capped walks are reached by lowering the one cap, for a test or a
    parametrized case marked step_cap."""
    mark = request.node.get_closest_marker("step_cap")
    if mark is not None:
        monkeypatch.setattr(core, "DEFAULT_STEP_CAP", mark.args[0])
