import pathlib
import re
import shlex

from hkforge.cli import build_parser

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    # the README's library example must run against the current API
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_command_lines_parse():
    # every command of the README's command-line block must parse, so the
    # docs cannot name a removed flag
    text = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", text, re.S).group(1)
    commands = [shlex.split(line) for line in
                block.replace("\\\n", " ").splitlines()]
    assert len(commands) >= 10
    assert all(argv[0] == "hkforge" for argv in commands)
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
