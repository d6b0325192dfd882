"""The mutation table in ``tools/mutants.py`` still fits the code it mutates."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_snippet_occurs_once_and_names_existing_tests():
    mutants = _load_mutants().MUTANTS
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        text = (ROOT / m.path).read_text()
        assert text.count(m.snippet) == 1, m.name
        assert m.replacement != m.snippet, m.name
        assert m.tests, m.name
        for test in m.tests:
            path, name = re.fullmatch(r"(tests/test_\w+\.py)::(test_\w+)", test).groups()
            assert f"\ndef {name}(" in (ROOT / path).read_text(), test
