"""The quickstarts in the package docstring and the README must run.

Each code block is executed verbatim, as a reader would paste it.
"""

import pathlib
import re
import textwrap

import repro

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _run(source: str) -> None:
    exec(compile(source, "<quickstart>", "exec"), {"__name__": "quickstart"})


def test_package_docstring_quickstart_runs():
    doc = repro.__doc__
    after = doc.split("Quickstart::\n", 1)[1]
    block = re.match(r"((?:\n|    .*\n)+)", after).group(1)
    source = textwrap.dedent(block)
    assert "Simulation" in source
    _run(source)


def test_readme_quickstart_runs(capsys):
    section = README.read_text().split("## Quickstart\n", 1)[1]
    source = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "Simulation" in source
    _run(source)
    assert "cloud" in capsys.readouterr().out
