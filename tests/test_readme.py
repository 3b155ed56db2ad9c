"""The README stays in step with the source tree."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_layout_names_every_module_once():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"`(?:src/symcap/)?(\w+)\.py`", layout)
    modules = {
        p.stem for p in (ROOT / "src" / "symcap").glob("*.py") if p.stem != "__init__"
    }
    assert len(named) == len(set(named)), named
    assert set(named) == modules
