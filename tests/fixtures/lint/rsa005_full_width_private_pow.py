"""Seeded RSA005 violations: full-width private exponentiation."""


class RsaPrivateKey:
    def __init__(self, n, d):
        self.n = n
        self.d = d

    def textbook(self, m):
        # Through modexp, not pow: allowed.
        return modexp(m, self.d, self.n)


def slow_sign(key, em):
    return pow(em, key.d, key.n)


def slow_sign_keywords(private, em):
    return pow(base=em, exp=private.d, mod=private.n)


def public_op_is_fine(key, m):
    return pow(m, key.e, key.n)
