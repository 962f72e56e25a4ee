"""Fixtures shared by the test modules."""

import pytest

import gen_goldens


@pytest.fixture(scope="session")
def golden_run():
    """gen_goldens.run_command memoised by argv, so that each golden command
    (``verify --suite all --seed 7`` above all) runs once per test session
    however many tests compare its output."""
    command, runs = gen_goldens.run_command, {}

    def run(argv):
        key = tuple(argv)
        if key not in runs:
            runs[key] = command(list(argv))
        return runs[key]

    return run
