"""Session-wide test ordering and the ``study`` marker.

The desk-scale UDA study behind ``benchmark_outcome`` (acceptance criteria 5
and 6) trains 70 models for 100 epochs each and takes minutes; the rest of
the suite takes seconds. Tests that use the study run last, so every other
test reports before it starts, and they carry the ``study`` marker, so
``pytest -m "not study"`` runs the fast suite alone. A plain ``pytest``
run skips and deselects nothing, and the relative order within each group
is kept.
"""

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "study: uses the 70-run desk-scale study (minutes)")


def pytest_collection_modifyitems(items):
    for item in items:
        if "benchmark_outcome" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.study)
    items.sort(key=lambda item: item.get_closest_marker("study") is not None)
