"""Cryptographic substrate: AES, modes, CMAC, RSA (OAEP/PSS), KDF, DRBG.

The protocols (modes, CMAC, the SP 800-108 KDF, OAEP/PSS, key
generation, the HMAC-DRBG) are implemented from primary specifications
in Python and validated against published test vectors. Two primitives
run in OpenSSL's libcrypto, bound through ``ctypes`` by
:mod:`repro.crypto.libcrypto` on first use (never at import):

- the AES block cipher (:mod:`repro.crypto.aes`): ECB and CBC through
  ``EVP_aes_*``, with every mode built on them; the pure-Python T-table
  cipher is the fallback and the tests' reference;
- RSA's modular exponentiation (:mod:`repro.crypto.bignum`):
  ``BN_mod_exp_mont_consttime``, with ``pow`` as the fallback.

Each binding is used only after it reproduces known answers, and falls
back on its own where the library is missing, a symbol is absent or an
answer is wrong; outputs are byte-identical either way.
"""

from repro.crypto.aes import AES, BLOCK_SIZE
from repro.crypto.cmac import aes_cmac, cmac_verify
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
