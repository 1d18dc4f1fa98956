from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run():
    # the blocks build on each other, so they share one namespace
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 4
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert 0.0 < namespace["eta"] < namespace["z"] < namespace["d"] < 1.0
    assert namespace["segment"] == "free"
    assert len(namespace["curve"]) == 4
    assert namespace["fig2"].header == ["t", "F_free", "F_zeno", "F_dd"]
    assert 0.0 < namespace["final_dd"] < 1.0
