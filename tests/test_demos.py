"""Every script under demos/, and the README's quick start, runs to
completion and prints its report."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", [*DEMOS, README], ids=[*(path.stem for path in DEMOS), "README"])
def test_demo_runs(path, capsys, tmp_path):
    if path == README:  # its fenced python block, so the README cannot drift from the API
        blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
        assert len(blocks) == 1
        path = tmp_path / "readme_quick_start.py"
        path.write_text(blocks[0], encoding="utf-8")
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
