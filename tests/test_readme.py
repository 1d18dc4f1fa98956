from __future__ import annotations

import pkgutil
import re
from pathlib import Path

import parityshield
from parityshield.scenarios import _merged, option_keys

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
    assert 0.0 < namespace["by_protocol"][0] < namespace["by_protocol"][1]
    assert namespace["by_protocol"][1] < namespace["by_protocol"][2] < 1.0
    assert namespace["tag"] == "in_pulse"
    assert namespace["fig2"].header == ["t", "F_free", "F_zeno", "F_dd"]
    assert 0.0 < namespace["final_dd"] < 1.0


def test_flag_table_matches_parser(subcommands):
    # each subcommand column lists exactly the flags it takes, with the
    # config key it sets and its default ("yes": none); the columns are the
    # parser's subcommands, and no row is a flag that none of them takes
    lines = README.read_text().splitlines()
    cells = [[c.strip().strip("`") for c in line.strip("|").split("|")]
             for line in lines if line.startswith(("| flag |", "| `--"))]
    (_, _, *kinds), *rows = cells
    assert kinds == list(subcommands)
    assert [flag for flag, _, *marks in rows if not any(marks)] == []
    for j, kind in enumerate(kinds):
        actions = {s: a for a in subcommands[kind]._actions
                   for s in a.option_strings}
        defaults = {} if kind == "validate" else _merged(kind, {})[0]
        keys = set() if kind == "validate" else set(option_keys(kind))
        listed = set()
        for flag, key, *marks in rows:
            if not marks[j]:
                continue
            listed.add(flag)
            action = actions[flag]
            assert action.dest == (key or action.dest), (kind, flag)
            # a flag that sets a config key names it; no other flag does
            assert bool(key) == (action.dest in keys), (kind, flag)
            default = (defaults.get(key) if action.default is None
                       else action.default)
            want = "yes" if default is None else str(default)
            assert marks[j] == want, (kind, flag)
        assert listed == set(actions) - {"-h", "--help"}, kind


def test_layout_lists_every_module():
    layout = README.read_text().split("## Layout\n", 1)[1].split("\n## ")[0]
    listed = re.findall(r"^- `(\w+)`", layout, re.M)
    modules = {m.name for m in pkgutil.iter_modules(parityshield.__path__)}
    assert sorted(listed) == sorted(modules - {"_version"})
