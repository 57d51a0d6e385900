"""Every ``repro`` subpackage imports on its own in a cold interpreter.

An import cycle only shows when a cycle member is the first ``repro``
module a program imports, so each subpackage is imported first, in a
fresh subprocess.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

_ROOT = Path(importlib.util.find_spec("repro").submodule_search_locations[0])
SUBPACKAGES = sorted(
    ".".join(("repro",) + init.parent.relative_to(_ROOT).parts)
    for init in _ROOT.rglob("__init__.py")
)


def _cold_import(package: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(_ROOT.parent))
    return subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.fixture(scope="module")
def cold_imports():
    """Import results per subpackage, two interpreters at a time."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(SUBPACKAGES, pool.map(_cold_import, SUBPACKAGES)))


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_subpackage_imports_first(package, cold_imports):
    result = cold_imports[package]
    assert result.returncode == 0, result.stderr
