import os
from pathlib import Path

import pytest

from helpers import load_fixture

# pytest's ``pythonpath`` setting reaches this process only; the CLI, demo and
# acceptance tests start child Pythons, which need the checkout's sources too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def five_class():
    return load_fixture("five_class.json")


@pytest.fixture(scope="session")
def six_class():
    return load_fixture("six_class.json")


@pytest.fixture(scope="session")
def two_user():
    return load_fixture("two_user_seven_class.json")


@pytest.fixture(scope="session")
def fsi():
    return load_fixture("fsi_three_class.json")


@pytest.fixture(scope="session")
def two_user_small():
    return load_fixture("two_user_three_class.json")


@pytest.fixture(scope="session")
def tiny():
    return load_fixture("tiny_two_class.json")
