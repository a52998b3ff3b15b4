"""The package's export list against the names it binds."""

import types

import starquant


def test_package_exports_what_it_binds():
    names = starquant.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(starquant, name) is not None, name
    public = {name for name, value in vars(starquant).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public | {"__version__"}
