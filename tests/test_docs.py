"""README checks that keep the documented API in step with the package."""

import re
import types
from pathlib import Path

import wsnmon

README = Path(__file__).resolve().parent.parent / "README.md"


def documented_exports() -> set[str]:
    """The backticked names in the bullets under "`wsnmon` exports"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("`wsnmon` exports", 1)[1].split("\n\n", 2)[1]
    return set(re.findall(r"`(\w+)`", section))


def test_readme_export_list_matches_package():
    assert documented_exports() == set(wsnmon.__all__)
    for name in wsnmon.__all__:  # each resolves, on first use, to what its module defines
        assert not isinstance(getattr(wsnmon, name), types.ModuleType)
    assert set(wsnmon.__all__) <= set(dir(wsnmon))
