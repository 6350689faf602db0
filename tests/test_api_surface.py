"""The documented and exported API: the README quick tour runs, and every
name a module lists in ``__all__`` exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import tvbospec

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_tour_runs(capsys):
    exec(compile(_quick_tour(), str(README), "exec"), {})
    total, upper, lower = map(float, capsys.readouterr().out.split())
    assert total >= 0 and upper > 0 and lower > 0


MODULES = ["tvbospec", *(info.name for info in pkgutil.walk_packages(
    tvbospec.__path__, prefix="tvbospec."))]


def test_modules_listing_all():
    listing = [name for name in MODULES
               if hasattr(importlib.import_module(name), "__all__")]
    assert {"tvbospec.kernels", "tvbospec.spectral", "tvbospec.gp",
            "tvbospec.tvbo", "tvbospec.bounds"} <= set(listing)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", [])
               if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
