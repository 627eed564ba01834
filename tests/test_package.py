"""The package's library surface and the README's Library section agree."""

import contextlib
import io
import re
from pathlib import Path

import qsat2

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text[text.index("## Library") : text.index("Module map")]


def test_every_exported_name_resolves():
    assert len(set(qsat2.__all__)) == len(qsat2.__all__)
    for name in qsat2.__all__:
        assert getattr(qsat2, name, None) is not None, name
    scope: dict = {}
    exec("from qsat2 import *", scope)
    assert set(qsat2.__all__) <= set(scope)


def test_readme_lists_exactly_the_exported_names():
    section = _library_section()
    stages = section[section.index("library surface") : section.index("A `Decomposition`")]
    assert set(re.findall(r"`(\w+)`", stages)) == set(qsat2.__all__)


def test_readme_library_snippet_runs():
    section = _library_section()
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {})
    assert out.getvalue() == "False 0 frustrated\n"
    assert snippet.rstrip().endswith("# False 0 frustrated")
