"""Run a test module a second time, on another crypto backend.

``tests/test_crypto_<name>_on_python.py`` collects every test of
``tests/test_crypto_<name>.py`` again under the ``python_aes`` fixture
(see ``tests/conftest.py``). The tests come from a second, independent
execution of the source file, not from importing its functions: a
``hypothesis`` test method refuses to run from two test-class instances,
and each module copy has test classes of its own.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path


def module_copy(name: str) -> dict[str, object]:
    """The namespace of a fresh execution of ``tests/<name>.py``."""
    copy_name = f"tests.{name}__copy"
    spec = importlib.util.spec_from_file_location(
        copy_name, Path(__file__).with_name(f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[copy_name] = module
    spec.loader.exec_module(module)
    return {key: value for key, value in vars(module).items() if not key.startswith("__")}
