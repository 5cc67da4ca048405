"""README's list of the package's names stays in step with the package."""

import re
from pathlib import Path

import sclflow

README = Path(__file__).resolve().parent.parent / "README.md"


def _bullet_names(heading: str) -> list[str]:
    """The leading identifier of each backticked name before the first
    colon of each bullet in the list that follows `heading`."""
    text = README.read_text(encoding="utf-8")
    section = text.split(heading, 1)[1].split("\n## ", 1)[0]
    names = []
    for bullet in re.findall(r"^- (.*?):", section, flags=re.M):
        names += re.findall(r"`([A-Za-z_]\w*)", bullet)
    return names


def test_readme_names_resolve_on_the_package():
    names = _bullet_names("Beyond the basic computation:")
    assert "lower_bound" in names and "synthesize_extremal" in names
    missing = [name for name in names if name not in sclflow.__all__]
    assert missing == []
