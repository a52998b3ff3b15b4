"""The package's export list against the names it binds."""

import os
import subprocess
import sys
import types
from pathlib import Path

import starquant


def test_package_exports_what_it_binds():
    names = starquant.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(starquant, name) is not None, name
    public = {name for name, value in vars(starquant).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public | {"__version__"}


def test_import_builds_no_jet_tables():
    # a cold `import starquant.cli` is what the benchmark's setup time
    # measures, so no jet space or product table may be built there
    src = Path(starquant.__file__).resolve().parents[1]
    probe = ("import starquant.cli, starquant.jets as jets; "
             "print(jets.jet_space.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "0"
