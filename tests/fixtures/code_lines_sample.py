"""A module whose code lines are known: tests/test_tools.py counts them.

The module, class and function docstrings, the comments and the blank lines
are not code lines.  The other 9 lines are: a statement spread over two
lines counts twice, and so does a string on two lines that is not a
docstring.
"""

# a comment on a line of its own

import sys


def double(x):
    """A function docstring,
    on two lines."""
    # a comment inside the body
    return 2 * x  # a comment after code leaves the line a code line


class Pair:
    """A class docstring."""

    def __init__(self, a, b):
        self.items = (a,
                      b)


NOTE = """a string that is not a docstring
is code"""
