"""Session-wide test ordering.

The desk-scale UDA study behind ``benchmark_outcome`` (acceptance criteria 5
and 6) trains 70 models for 100 epochs each and takes minutes; the rest of
the suite takes seconds. Tests that use the study run last, so every other
test reports before it starts. Nothing is skipped or deselected, and the
relative order within each group is kept.
"""


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: "benchmark_outcome" in getattr(item, "fixturenames", ()))
