import importlib.util
import json
import os

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


@pytest.fixture(scope="session")
def fill_hashes():
    """The ``tools/fill_hashes.py`` module, loaded from its file."""
    tool = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "fill_hashes.py")
    spec = importlib.util.spec_from_file_location("fill_hashes", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def hashed_fills(fill_hashes):
    """Every fill that ``tools/fill_hashes.py`` hashes, by its printed name, made once."""
    return dict(fill_hashes.fills())
