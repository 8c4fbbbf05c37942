import os
import sys

import pytest

# Make `pytest` work from a fresh checkout without an editable install. A
# PYTHONPATH entry that holds a tapkit package (say, a copy of src) is left
# ahead of it, so `PYTHONPATH=<copy>/src pytest` tests that copy.
if not any(os.path.isdir(os.path.join(entry, "tapkit"))
           for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from tapkit import define_space  # noqa: E402


@pytest.fixture
def nao_space():
    """The running-example space: 4 joint motors plus a 2-D hand position."""
    return define_space([("motor", "m", 4), ("extero", "vision", 2)], name="nao")


@pytest.fixture
def grid_space():
    """A four-modality space for diagram tests (one group per kind)."""
    return define_space(
        [("motor", "m", 4), ("proprio", "q", 4), ("extero", "vision", 2),
         ("intero", "i", 1)],
        name="nao4",
    )
