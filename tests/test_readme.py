"""README names library objects as `module.name`; each must exist."""

import functools
import importlib
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("cli", "export", "graph_core", "lock_analysis", "parsers", "profile_agg",
           "sched_analysis", "simgen", "trace_model")
# a backticked span that opens with module.name or module.name.attr
NAME_RE = re.compile(r"`(%s)((?:\.[A-Za-z_]\w*){1,2})" % "|".join(MODULES))


def test_every_name_readme_gives_resolves():
    names = sorted(set(NAME_RE.findall(README.read_text(encoding="utf-8"))))
    assert names, "README names no library objects"
    missing = []
    for module, path in names:
        try:
            functools.reduce(getattr, path[1:].split("."),
                             importlib.import_module(f"latprof.{module}"))
        except AttributeError:
            missing.append(module + path)
    assert missing == []
