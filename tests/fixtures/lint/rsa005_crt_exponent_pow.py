"""Seeded RSA005 violations: CRT exponents and no class exemption."""


class RsaPrivateKey:
    def __init__(self, p, q, dp, dq):
        self.p, self.q, self.dp, self.dq = p, q, dp, dq

    def raw_decrypt(self, c):
        # RsaPrivateKey itself is not exempt: its CRT halves use modexp.
        m1 = pow(c, self.dp, self.p)
        m2 = pow(c, exp=self.dq, mod=self.q)
        return m1, m2


def crt_half_with_a_local_modulus(key, c, p):
    return pow(c, key.dp, p)


def through_modexp_is_fine(key, c):
    return modexp(c, key.dq, key.q)


def two_argument_pow_is_fine(key, c):
    return pow(c, key.d)


def public_exponent_is_fine(key, m):
    return pow(m, key.e, key.n)
