"""The library runs on numpy alone.

pyproject.toml declares numpy as the only runtime dependency; scipy, sympy
and hypothesis are test extras.  Every quadspline module must import with
them blocked.
"""

import os
import subprocess
import sys
from pathlib import Path

import quadspline

BLOCK_EXTRAS = """
import importlib, pkgutil, sys
for name in ("scipy", "sympy", "hypothesis"):
    sys.modules[name] = None   # any import of it raises ImportError
import quadspline
for module in pkgutil.iter_modules(quadspline.__path__):
    importlib.import_module("quadspline." + module.name)
"""


def test_library_imports_without_test_extras():
    src = str(Path(quadspline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", BLOCK_EXTRAS], env=env, check=True,
                   timeout=60)
