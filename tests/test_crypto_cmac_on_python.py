"""tests/test_crypto_cmac.py again, with ``cipher_for`` on the Python fallback."""

import pytest

from tests.backends import module_copy

globals().update(module_copy("test_crypto_cmac"))
pytestmark = pytest.mark.usefixtures("python_aes")
