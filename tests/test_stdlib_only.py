"""The runtime is stdlib-only: importing the CLI loads nothing else.

The check runs in a fresh ``python -S`` so that site ``.pth`` hooks, which
can import third-party modules at start-up, do not hide or add imports.
Every command pays for its imports in a fresh interpreter, so the probe
also keeps out the stdlib modules that are slow to load and not needed to
start: ``dataclasses`` (which loads ``inspect``) and ``hashlib`` (imported
only when a content hash is taken).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import walkup

PROBE = """
import json, sys
import walkup.cli
print(json.dumps(sorted({name.partition(".")[0] for name in sys.modules})))
"""


@pytest.fixture(scope="module")
def loaded() -> set[str]:
    """Top-level names of the modules loaded by ``import walkup.cli``."""
    src = str(Path(walkup.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return set(json.loads(out.stdout))


def test_cli_import_loads_only_stdlib_modules(loaded):
    assert "walkup" in loaded
    allowed = (set(sys.stdlib_module_names) | set(sys.builtin_module_names)
               | {"__main__", "walkup"})
    assert sorted(loaded - allowed) == []


def test_cli_import_skips_slow_stdlib_modules(loaded):
    assert sorted(loaded & {"dataclasses", "inspect", "hashlib"}) == []
