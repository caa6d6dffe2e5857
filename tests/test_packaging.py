"""Package metadata: the installed version and the source version agree."""

import os
import subprocess
import sys
import tomllib
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_pyproject_version_matches_package_version():
    with PYPROJECT.open("rb") as f:
        project = tomllib.load(f)["project"]
    assert project["version"] == repro.__version__


def test_import_loads_no_third_party_package_but_numpy():
    # A fresh interpreter: this test process may already hold any module.
    # numpy is the one runtime dependency; anything else `import repro`
    # pulls in costs every user start-up time and memory.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro\n"
        "loaded = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "extra = sorted(name for name in loaded - {'numpy', 'repro'}\n"
        "               if name not in sys.stdlib_module_names\n"
        "               and not name.startswith('_'))\n"
        "assert not extra, extra\n"
    )
    subprocess.run(
        [sys.executable, "-c", code], check=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
