"""The public names of the package: importable, and each one exercised by
the tests or the command line interface."""

import re
from pathlib import Path

import nlw

ROOT = Path(__file__).resolve().parents[1]


def test_star_import_provides_every_public_name():
    namespace = {}
    exec("from nlw import *", namespace)
    assert set(nlw.__all__) <= set(namespace)


def test_every_public_name_has_a_caller():
    here = Path(__file__).resolve()
    sources = [p for p in sorted((ROOT / "tests").glob("*.py")) if p.resolve() != here]
    sources.append(ROOT / "src" / "nlw" / "cli.py")
    corpus = "\n".join(p.read_text(encoding="utf-8") for p in sources)
    unused = [name for name in nlw.__all__ if not re.search(rf"\b{name}\b", corpus)]
    assert unused == []
