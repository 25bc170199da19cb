"""``tools/loc.py``: each kind of line lands in its own column, and the four
columns add up to the line count of every module of the package."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

# code 3, docstring 5, comment 1, blank 2: no two columns share a count
MODULE = '''"""A module docstring,

with a blank line inside."""

# a comment
x = 1  # code with a trailing comment

def f():
    """A function docstring
    on two lines."""
    return x
'''


def test_each_kind_of_line_in_its_own_column(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(MODULE)
    assert loc.count(str(path)) == {"lines": 11, "code": 3, "docstring": 5, "comment": 1, "blank": 2}


def test_the_parts_add_up_to_wc_l():
    modules = sorted((ROOT / "src" / "bq2d").glob("*.py"))
    assert modules
    for path in modules:
        counts = loc.count(str(path))
        assert counts["lines"] == path.read_bytes().count(b"\n"), path  # what wc -l counts
        assert counts["code"] + counts["docstring"] + counts["comment"] + counts["blank"] == counts["lines"], path
