import ast
import pathlib
import re
import shlex

from hkforge.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def _unnamed(scan_bench: bool = True) -> list[str]:
    """Module-level public functions and classes of ``src/hkforge`` named
    nowhere outside their own definition: not in the package (whose
    ``__init__`` re-exports do not count), not in ``bench/`` and not in
    README's Library section."""
    package = sorted(p for p in (ROOT / "src" / "hkforge").glob("*.py")
                     if p.name != "__init__.py")
    texts = {p: p.read_text().splitlines() for p in package}
    others = [README.read_text().split("## Library", 1)[1]
              .split("\n## ", 1)[0]]
    if scan_bench:
        others += [p.read_text()
                   for p in sorted((ROOT / "bench").rglob("*.py"))]
    unnamed = []
    for path in package:
        for node in ast.parse("\n".join(texts[path])).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            word = re.compile(rf"\b{node.name}\b")
            rest = ["\n".join(lines[:first - 1] + lines[node.end_lineno:])
                    if p == path else "\n".join(lines)
                    for p, lines in texts.items()]
            if not any(word.search(text) for text in rest + others):
                unnamed.append(node.name)
    return unnamed


def test_every_public_name_is_used():
    # a public function or class that no program path, benchmark or
    # README example names is shipped for the tests alone
    assert _unnamed() == []


def test_unused_name_guard_sees_bench_only_names():
    # control: the KS spectrum generator is called from bench/ alone
    assert "spectrum_generator" in _unnamed(scan_bench=False)
