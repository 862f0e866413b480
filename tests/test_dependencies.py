"""The library and CLI run on numpy alone: the test-only packages are refused."""

import subprocess
import sys
from pathlib import Path

import twocenter

SRC = Path(twocenter.__file__).resolve().parent.parent

SCRIPT = """
import importlib, pkgutil, sys

REFUSED = {"scipy", "sympy", "mpmath", "hypothesis", "pytest"}


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in REFUSED:
            raise ImportError(f"{name} is refused: the library must run on numpy alone")
        return None


sys.meta_path.insert(0, Refuse())
sys.path.insert(0, SRC)
import twocenter

for module in pkgutil.iter_modules(twocenter.__path__):
    importlib.import_module("twocenter." + module.name)
from twocenter.cli import main

codes = [main(["simulate", "--t-end", "1"]), main(["verify-theorem", "--tau-end", "1"])]
print("exit codes", codes, "refused loaded:", sorted(REFUSED & set(sys.modules)))
"""


def test_library_and_cli_need_only_numpy():
    result = subprocess.run(
        [sys.executable, "-c", f"SRC = {str(SRC)!r}\n{SCRIPT}"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "exit codes [0, 0] refused loaded: []"
