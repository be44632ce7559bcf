import importlib
import re
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_every_declared_dependency_imports():
    # a dependency that cannot be imported here is code that no test runs
    deps = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    assert deps
    for requirement in deps:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        importlib.import_module(name.replace("-", "_"))
