"""Cryptographic substrate: AES, modes, CMAC, RSA (OAEP/PSS), KDF, DRBG.

Everything is implemented from primary specifications in pure Python —
the environment ships no third-party crypto — and validated against
published test vectors in the test suite. The one exception is RSA's
modular exponentiation (:mod:`repro.crypto.bignum`), which calls the
libcrypto that ``ctypes.util.find_library`` locates, once it has
checked a known answer against ``pow``.
"""

from repro.crypto.aes import AES, BLOCK_SIZE
from repro.crypto.cmac import aes_cmac, aes_cmac_many, cmac_verify
from repro.crypto.kdf import (
    LABEL_AUTHENTICATION,
    LABEL_ENCRYPTION,
    LABEL_GENERIC,
    SessionKeys,
    derive_key,
    derive_session_keys,
)
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_encrypt,
    ctr_transform,
    ecb_decrypt,
    ecb_encrypt,
    pkcs7_pad,
    pkcs7_unpad,
    xor_bytes,
)
from repro.crypto.rng import HmacDrbg, derive_rng
from repro.crypto.rsa import (
    RsaPrivateKey,
    RsaPublicKey,
    generate_keypair,
    oaep_decrypt,
    oaep_encrypt,
    pss_sign,
    pss_verify,
)

__all__ = [
    "AES",
    "BLOCK_SIZE",
    "aes_cmac",
    "aes_cmac_many",
    "cmac_verify",
    "LABEL_AUTHENTICATION",
    "LABEL_ENCRYPTION",
    "LABEL_GENERIC",
    "SessionKeys",
    "derive_key",
    "derive_session_keys",
    "cbc_decrypt",
    "cbc_encrypt",
    "ctr_transform",
    "ecb_decrypt",
    "ecb_encrypt",
    "pkcs7_pad",
    "pkcs7_unpad",
    "xor_bytes",
    "HmacDrbg",
    "derive_rng",
    "RsaPrivateKey",
    "RsaPublicKey",
    "generate_keypair",
    "oaep_decrypt",
    "oaep_encrypt",
    "pss_sign",
    "pss_verify",
]
