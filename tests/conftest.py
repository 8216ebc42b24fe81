import importlib.util
import json
import os
import sys

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and stay small, so
# the suite is deterministic and its run time barely moves.
settings.register_profile(
    "horofill", derandomize=True, max_examples=25, deadline=None, database=None
)
settings.load_profile("horofill")


@pytest.fixture(scope="session")
def frozen():
    path = os.path.join(os.path.dirname(__file__), "fixtures", "frozen.json")
    with open(path) as fh:
        return json.load(fh)


def load_tool(name, folder="tools"):
    """The module ``<folder>/<name>.py``, loaded from its file."""
    tool = os.path.join(os.path.dirname(__file__), os.pardir, folder, f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def fill_hashes():
    """The ``tools/fill_hashes.py`` module, loaded from its file."""
    return load_tool("fill_hashes")


@pytest.fixture(scope="session")
def criterion2_sweep():
    """The ``tools/criterion2_sweep.py`` module, loaded from its file."""
    return load_tool("criterion2_sweep")


@pytest.fixture(scope="session")
def job_peaks():
    """The ``tools/job_peaks.py`` module, loaded from its file."""
    return load_tool("job_peaks")


@pytest.fixture(scope="session")
def tracing():
    """The benchmark's ``perfbench/tracing.py`` module, loaded from its file."""
    return load_tool("tracing", folder="perfbench")


@pytest.fixture(scope="session")
def layer_timings(fill_hashes):
    """The ``tools/layer_timings.py`` module, which imports ``fill_hashes`` by name."""
    sys.modules.setdefault("fill_hashes", fill_hashes)
    return load_tool("layer_timings")


@pytest.fixture(scope="session")
def hashed_fills(fill_hashes):
    """Every fill that ``tools/fill_hashes.py`` hashes, by its printed name, made once."""
    return dict(fill_hashes.fills())
