"""Shared test configuration (see :mod:`repro.testing` for the helpers
this suite and the benchmark suite both use)."""

import pytest

from repro.testing import register_hypothesis_profile

register_hypothesis_profile()


@pytest.fixture(autouse=True)
def postmortem_dir(tmp_path, monkeypatch):
    """Flight-recorder postmortems land in the test's tmpdir.

    Several tests fail chaos cells on purpose; without this every run
    would leave ``POSTMORTEM_*.json`` files in the working tree.
    """
    monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(tmp_path))
    return tmp_path
