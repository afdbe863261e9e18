"""Seeded AES006 violations: one-block AES calls outside aes.py."""


def unwrap(cipher, blob):
    return b"".join(
        cipher.decrypt_block(blob[i : i + 16]) for i in range(0, len(blob), 16)
    )


def aliased(cipher, blob):
    step = cipher.decrypt_block
    return step(blob[:16])


def chained(cipher, block):
    return cipher.encrypt_block(block)


def whole_buffer_is_fine(cipher, blob):
    return cipher.decrypt_blocks(blob)


def cbc_is_fine(cipher, iv, blob):
    return cipher.encrypt_blocks(blob) + cipher.cbc_encrypt(iv, blob)
