"""Seeded RSA005 violations: private exponents on the variable-time path."""

from repro.crypto import bignum
from repro.crypto.bignum import modexp_pair, modexp_public


class RsaPrivateKey:
    def __init__(self, n, d, p, q, dp, dq):
        self.n, self.d, self.p, self.q, self.dp, self.dq = n, d, p, q, dp, dq

    def leaky_halves(self, c):
        m1 = modexp_public(c, self.dp, self.p)
        m2 = bignum.modexp_public(c, exp=self.dq, mod=self.q)
        return m1, m2

    def constant_time_halves_are_fine(self, c):
        return modexp_pair(c, self.dp, self.p, c, self.dq, self.q)


def leaky_sign(key, em, n):
    # Another object's modulus does not make the exponent public.
    return modexp_public(em, key.d, n)


def public_exponent_is_fine(key, m):
    return modexp_public(m, key.e, key.n)
