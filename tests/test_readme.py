import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run():
    # the library examples in the README are doctests, so a renamed or
    # removed name cannot leave them stale
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted >= 6 and result.failed == 0, result
