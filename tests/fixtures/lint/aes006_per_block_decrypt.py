"""Seeded AES006 violations: one-block AES decryption outside aes.py."""


def unwrap(cipher, blob):
    return b"".join(
        cipher.decrypt_block(blob[i : i + 16]) for i in range(0, len(blob), 16)
    )


def aliased(cipher, blob):
    step = cipher.decrypt_block
    return step(blob[:16])


def whole_buffer_is_fine(cipher, blob):
    return cipher.decrypt_blocks(blob)


def encryption_is_fine(cipher, block):
    return cipher.encrypt_block(block)
