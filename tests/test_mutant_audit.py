"""The mutant list of ``tools/mutant_audit.py`` against the source: every
snippet of every mutant must occur exactly once in its file, as the audit
requires before it runs a mutant, so a refactor that moves a snippet fails
here rather than leaving the audit stale."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _mutants():
    spec = importlib.util.spec_from_file_location(
        "mutant_audit", ROOT / "tools" / "mutant_audit.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_snippet_occurs_once():
    stale = []
    for name, path, old, new in _mutants():
        text = (ROOT / "src" / "hkforge" / path).read_text()
        snippets = (old,) if isinstance(old, str) else old
        assert isinstance(new, str) == isinstance(old, str)
        assert isinstance(new, str) or len(new) == len(old), name
        stale += [(name, snippet, text.count(snippet)) for snippet in snippets
                  if text.count(snippet) != 1]
    assert stale == []
