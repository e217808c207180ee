"""The README's python blocks, run in order in one namespace, so that an
example calling a removed or renamed name fails the suite."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def test_python_blocks_run_in_order(capsys):
    blocks = python_blocks(README.read_text())
    assert blocks, "README has no python blocks"
    namespace = {"__name__": "readme"}
    for k, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md python block {k}", "exec"), namespace)
    assert capsys.readouterr().out.strip()
