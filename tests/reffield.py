"""Reference F_(p^k) arithmetic for the tests, sharing no code with GF.

Elements use GF's encoding: digit i of the base-p expansion of the code is
the coefficient of x^i.  Products are schoolbook products of the digit
tuples, reduced modulo the field's modulus by elimination from the top
coefficient down; everything is plain Python integers and lists.
"""


def remainder_mod(a, f, p):
    """a modulo the monic f over F_p as a length-deg(f) tuple, by schoolbook
    elimination on plain lists."""
    a = [c % p for c in a]
    k = len(f) - 1
    for top in range(len(a) - 1, k - 1, -1):
        c = a[top]
        if c:
            for j in range(k + 1):
                a[top - k + j] = (a[top - k + j] - c * f[j]) % p
    return tuple(a[:k]) + (0,) * (k - len(a))


class RefField:
    """F_p[x]/(modulus) on encoded integers, one scalar at a time."""

    def __init__(self, p, modulus):
        self.p = p
        self.modulus = tuple(modulus)
        self.k = len(modulus) - 1
        self.q = p**self.k
        self._products = {}

    def digits(self, a):
        return [(a // self.p**i) % self.p for i in range(self.k)]

    def code(self, digits):
        return sum((c % self.p) * self.p**i for i, c in enumerate(digits))

    def add(self, a, b):
        return self.code(x + y for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a):
        return self.code(-x for x in self.digits(a))

    def mul(self, a, b):
        key = (min(a, b), max(a, b))
        if key not in self._products:
            product = [0] * (2 * self.k - 1)
            for i, x in enumerate(self.digits(a)):
                for j, y in enumerate(self.digits(b)):
                    product[i + j] += x * y
            self._products[key] = self.code(
                remainder_mod(product, self.modulus, self.p)
            )
        return self._products[key]

    def power(self, a, n):
        result = 1
        for _ in range(n):
            result = self.mul(result, a)
        return result
