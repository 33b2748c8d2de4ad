import doctest
import shlex
from pathlib import Path

from multdep.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run():
    # the library examples in the README are doctests, so a renamed or
    # removed name cannot leave them stale
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted >= 6 and result.failed == 0, result


def test_readme_cli_comments_match_the_output(capsys):
    # a CLI line whose trailing comment is an output, run in process: the
    # comment is the first line it prints (fatal's comment describes its
    # output instead)
    block = README.read_text().split("## CLI", 1)[1].split("```")[1]
    checked = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if not comment or argv[1] == "fatal":
            continue
        assert argv[0] == "multdep" and main(argv[1:]) == 0, line
        assert capsys.readouterr().out.splitlines()[0] == comment.strip(), line
        checked.append(argv[1])
    assert checked == ["depcheck", "rank", "volume", "psi0", "fbase"]
