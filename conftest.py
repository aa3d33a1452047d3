"""Shared pytest configuration for ``tests/`` and ``benchmarks/``.

Test runs must be hermetic with respect to the content-addressed result
store: reading the user's persistent ``~/.cache/repro/store`` could mask
a regression behind a stale entry written by different code under the
same version string (and would let a benchmark time a warm hit instead
of real simulation work), and writing there pollutes the developer's
real cache.  Point the default store at a per-session temporary
directory instead; individual tests that exercise store behavior still
override ``REPRO_STORE_DIR`` themselves via ``monkeypatch``.
"""

import os

import pytest


@pytest.fixture(autouse=True, scope="session")
def _isolated_result_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("repro-store")
    saved = os.environ.get("REPRO_STORE_DIR")
    os.environ["REPRO_STORE_DIR"] = str(root)
    # A REPRO_TRACE inherited from the developer's shell would make
    # every CLI-invoking test write (and announce) a trace file.
    saved_trace = os.environ.pop("REPRO_TRACE", None)
    yield
    if saved is None:
        os.environ.pop("REPRO_STORE_DIR", None)
    else:
        os.environ["REPRO_STORE_DIR"] = saved
    if saved_trace is not None:
        os.environ["REPRO_TRACE"] = saved_trace
