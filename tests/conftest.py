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
