"""The package parses as the oldest Python that pyproject.toml admits."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = tuple(map(int, re.search(
    r'requires-python\s*=\s*">=(\d+)\.(\d+)"',
    (ROOT / "pyproject.toml").read_text()).groups()))


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "sclflow").glob("*.py")),
                         ids=lambda p: p.name)
def test_source_parses_at_the_requires_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
