"""tools/code_lines.py: which lines of a source count as code."""

import importlib.util
import textwrap
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_code_lines_skips_blanks_comments_and_docstrings():
    src = textwrap.dedent('''\
        """Module docstring,
        on two lines."""

        # a comment
        import os  # counts


        class A:
            """Class docstring."""

            x = """a string that is
            not a docstring"""

            def f(self):
                """Function
                docstring."""
                return (1,
                        2)
        ''')
    # import, class, x's two lines, def, the return's two lines
    assert code_lines.code_lines(src) == 7
