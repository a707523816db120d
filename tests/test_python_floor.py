"""The package's Python floor (``requires-python = ">=3.10"``), checked as
syntax on any newer interpreter."""
import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    """Every file under ``src/trifree`` and ``tests`` parses with the 3.10
    grammar, so syntax new in 3.11 (``except*``, say) fails here and not
    first on a 3.10 interpreter.  Library APIs new in 3.11, such as
    ``tomllib`` or ``datetime.UTC``, are not syntax, and this test does not
    catch them."""
    paths = sorted((ROOT / "src" / "trifree").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(paths) > 20
    bad = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
        except SyntaxError as e:
            bad.append("%s:%s: %s" % (path.relative_to(ROOT), e.lineno, e.msg))
    assert not bad, bad


def test_the_check_sees_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
