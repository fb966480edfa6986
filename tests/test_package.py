"""The package's public surface."""

import carsfisher


def test_all_names_resolve_without_duplicates():
    names = carsfisher.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(carsfisher, name)]
    assert missing == []
