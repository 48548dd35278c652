"""The size measure of ``scripts/code_lines.py``, which every size claim quotes."""

import importlib.util
from pathlib import Path

import pytest

CODE_LINES = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"


def load_code_lines():
    spec = importlib.util.spec_from_file_location("scripts_code_lines", CODE_LINES)
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    return code_lines


DOCSTRINGS = '''"""Module
docstring."""
class Box:
    """Class docstring."""

    def area(self):
        """Function
        docstring."""
        return 1
'''

COMMENTS = """# a comment

x = 1

    # an indented comment
"""

STRINGS = '''x = 1
"""A string statement
that is no docstring."""
y = """a
b"""
'''


@pytest.mark.parametrize(
    "text, lines, code",
    [
        (DOCSTRINGS, 9, 3),  # class, def, return
        (COMMENTS, 5, 1),
        (STRINGS, 5, 5),
        ("x = 1  # a trailing comment\n", 1, 1),
    ],
    ids=["docstrings", "comments_and_blanks", "multiline_strings", "trailing_comment"],
)
def test_count(text, lines, code):
    assert load_code_lines().count(text) == (lines, code)
