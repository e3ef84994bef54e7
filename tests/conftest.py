import os
import sys

# leave no bytecode in the checkout: a benchmark run from it would then time
# a bytecode import instead of a compile; the suite's subprocesses inherit
# the variable
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import pytest

from flowcomplex import GALLERY, build


@pytest.fixture(scope="session")
def gallery_complexes():
    return {entry.name: build(entry.name, None) for entry in GALLERY}
