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


def _references(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every code reference in a module: a ``Name``, the
    attribute of an ``Attribute`` and each imported name.  Docstrings and
    comments are not code, so a name they mention is not referenced."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            refs.append((node.name.rsplit(".", 1)[-1], node.lineno))
    return refs


def _unnamed(scan_bench: bool = True) -> list[str]:
    """Module-level public functions and classes of ``src/hkforge`` that no
    code of the package references outside their own definition (the
    ``__init__`` re-exports do not count), and that neither ``bench/`` nor
    README's Library section names."""
    package = sorted(p for p in (ROOT / "src" / "hkforge").glob("*.py")
                     if p.name != "__init__.py")
    trees = {p: ast.parse(p.read_text()) for p in package}
    refs = {p: _references(tree) for p, tree in trees.items()}
    others = [README.read_text().split("## Library", 1)[1]
              .split("\n## ", 1)[0]]
    if scan_bench:
        others += [p.read_text()
                   for p in sorted((ROOT / "bench").rglob("*.py"))]
    unnamed = []
    for path in package:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            used = any(name == node.name
                       and not (p == path and first <= line <= node.end_lineno)
                       for p, found in refs.items() for name, line in found)
            word = re.compile(rf"\b{node.name}\b")
            if not used and not any(word.search(text) for text in others):
                unnamed.append(node.name)
    return unnamed


def test_every_public_name_is_used():
    # a public function or class that no program path, benchmark or
    # README example names is shipped for the tests alone
    assert _unnamed() == []


def test_unused_name_guard_sees_bench_only_names():
    # control: the KS spectrum generator is called from bench/ alone
    assert "spectrum_generator" in _unnamed(scan_bench=False)


def test_unused_name_guard_reads_code_not_words():
    # control: a docstring or a comment that names a function is no use
    source = 'def f():\n    """g and h"""\n    # g again\n    return h.k()\n'
    assert sorted(name for name, _ in _references(ast.parse(source))) \
        == ["h", "k"]
