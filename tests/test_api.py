"""Public API guard: ``seriesmine.__all__`` is exactly what the package exposes."""

import types

import seriesmine


def test_all_names_resolve():
    missing = [name for name in seriesmine.__all__ if not hasattr(seriesmine, name)]
    assert missing == []


def test_no_public_name_outside_all():
    exposed = {name for name, value in vars(seriesmine).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(exposed - set(seriesmine.__all__)) == []
    assert len(seriesmine.__all__) == len(set(seriesmine.__all__))
