import importlib
import pkgutil
import re
from pathlib import Path

import cknlab


def test_every_exported_name_resolves():
    modules = [cknlab] + [
        importlib.import_module(f"cknlab.{info.name}") for info in pkgutil.iter_modules(cknlab.__path__)
    ]
    assert len(modules) > 1
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})
