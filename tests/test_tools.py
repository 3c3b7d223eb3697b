"""The repository's own tools: the code-only line count."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("code_lines", Path(__file__).parent.parent / "tools" / "code_lines.py")
code_lines_tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines_tool)

SNIPPET = '''"""A module docstring
over two lines."""

import os  # a comment beside code

# a comment line


def f():
    """A function docstring."""
    text = """a string
that is not a docstring,
over three lines"""
    return os.sep + text
'''


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET, encoding="utf-8")
    # the import, the def, the three lines of the assigned string and the return
    assert code_lines_tool.code_lines(path) == 6
