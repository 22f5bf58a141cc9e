"""Lie data held by the benchmark, apart from the program under test.

Cartan matrices follow the Bourbaki numbering with the convention
A[i][j] = <alpha_i, alpha_j-check>, so row i is the simple root alpha_i in
fundamental-weight coordinates.  Weights are tuples of ints or Fractions in
fundamental-weight coordinates; central-torus coordinates come last and are
fixed by every reflection.  Nothing here imports the program.
"""

import re
from fractions import Fraction
from math import factorial

_FACTOR = re.compile(r"^([ABCDEFGT])(\d+)$")


def _chain(n):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
    for i in range(n - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    return a


def cartan_matrix(letter, n):
    if letter == "A":
        return _chain(n)
    if letter == "B":  # alpha_n short
        a = _chain(n)
        a[n - 2][n - 1] = -2
        return a
    if letter == "C":  # alpha_n long
        a = _chain(n)
        a[n - 1][n - 2] = -2
        return a
    if letter == "D":  # alpha_{n-1}, alpha_n both hang off alpha_{n-2}
        a = _chain(n)
        a[n - 2][n - 1] = a[n - 1][n - 2] = 0
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
        return a
    if letter == "E":  # chain 1-3-4-...-n, node 2 hangs off node 4
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        chain = [0] + list(range(2, n))
        for x, y in zip(chain, chain[1:]):
            a[x][y] = a[y][x] = -1
        a[1][3] = a[3][1] = -1
        return a
    if letter == "F":  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        a = _chain(4)
        a[1][2] = -2
        return a
    if letter == "G":  # alpha_1 short, alpha_2 long
        return [[2, -1], [-3, 2]]
    raise ValueError("unknown type %r" % letter)


def _star_perm(letter, n):
    """Index permutation of the diagram automorphism -w0 on one factor."""
    if letter == "A":
        return list(range(n))[::-1]
    if letter == "D" and n % 2 == 1:
        return list(range(n - 2)) + [n - 1, n - 2]
    if letter == "E" and n == 6:
        return [5, 1, 4, 3, 2, 0]
    return list(range(n))


class Group:
    """A product of simple factors plus a central torus, e.g. "A2xB3xT1"."""

    def __init__(self, text):
        self.factors = []
        self.torus = 0
        for token in text.split("x"):
            m = _FACTOR.match(token)
            if m is None:
                raise ValueError("bad group factor %r" % token)
            letter, n = m.group(1), int(m.group(2))
            if letter == "T":
                self.torus += n
            else:
                self.factors.append((letter, n))
        self.ss_rank = sum(n for _, n in self.factors)
        self.rank = self.ss_rank + self.torus
        self.cartan = [[0] * self.ss_rank for _ in range(self.ss_rank)]
        self.star_perm = []
        off = 0
        for letter, n in self.factors:
            block = cartan_matrix(letter, n)
            for i in range(n):
                for j in range(n):
                    self.cartan[off + i][off + j] = block[i][j]
            self.star_perm += [off + k for k in _star_perm(letter, n)]
            off += n
        self.simple = [tuple(row) + (0,) * self.torus for row in self.cartan]
        self._positive = None

    def weyl_order(self):
        return weyl_order_of_cartan(self.cartan)

    def reflect(self, i, mu):
        c = mu[i]
        if c == 0:
            return mu
        return tuple(x - c * a for x, a in zip(mu, self.simple[i]))

    def is_dominant(self, mu):
        return all(mu[i] >= 0 for i in range(self.ss_rank))

    def star(self, lam):
        """-w0 lam for a dominant lam: the diagram automorphism, torus negated."""
        ss = tuple(lam[self.star_perm[i]] for i in range(self.ss_rank))
        return ss + tuple(-x for x in lam[self.ss_rank:])

    def positive_roots(self):
        """Positive roots in simple-root coordinates (tuples of ints)."""
        if self._positive is None:
            self._positive = positive_roots(self.cartan)
        return self._positive

    def root_weight(self, beta):
        """A root given in simple-root coordinates, in weight coordinates."""
        out = [0] * self.rank
        for i, b in enumerate(beta):
            if b:
                for j in range(self.rank):
                    out[j] += b * self.simple[i][j]
        return tuple(out)

    def coroot_pairing(self, beta, lam):
        """<lam, beta-check>, by walking beta down to a simple root."""
        n = self.ss_rank
        while sum(beta) > 1:
            for i in range(n):
                c = sum(beta[j] * self.cartan[j][i] for j in range(n))
                if c > 0:
                    beta = tuple(b - (c if j == i else 0) for j, b in enumerate(beta))
                    lam = self.reflect(i, lam)
                    break
        return lam[beta.index(1)]

    def weyl_dimension(self, lam):
        rho = (1,) * self.ss_rank + (0,) * self.torus
        lr = tuple(x + r for x, r in zip(lam, rho))
        val = Fraction(1)
        for beta in self.positive_roots():
            val *= Fraction(self.coroot_pairing(beta, lr), self.coroot_pairing(beta, rho))
        if val.denominator != 1:
            raise ValueError("non-integral Weyl dimension")
        return int(val)

    def stabilizer_order(self, lam):
        """|W_lam| for dominant lam: the parabolic subgroup on the simple
        reflections that fix lam."""
        fixed = [i for i in range(self.ss_rank) if lam[i] == 0]
        return weyl_order_of_cartan([[self.cartan[i][j] for j in fixed] for i in fixed])


def positive_roots(a):
    """Positive roots of the Cartan matrix a, in simple-root coordinates,
    by closing the simple roots under the simple reflections."""
    n = len(a)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simple)
    todo = list(simple)
    while todo:
        beta = todo.pop()
        for i in range(n):
            c = sum(beta[j] * a[j][i] for j in range(n))
            nu = tuple(b - (c if j == i else 0) for j, b in enumerate(beta))
            if nu not in seen:
                seen.add(nu)
                todo.append(nu)
    return sorted(b for b in seen if all(x >= 0 for x in b))


def det(m):
    """Integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def weyl_order_of_cartan(a):
    """|W| of a Cartan matrix: per connected component, n! times the
    determinant times the product of the highest root's coefficients."""
    n = len(a)
    left = set(range(n))
    order = 1
    while left:
        comp, todo = set(), [min(left)]
        while todo:
            i = todo.pop()
            if i not in comp:
                comp.add(i)
                todo += [j for j in range(n) if j != i and a[i][j] != 0]
        left -= comp
        idx = sorted(comp)
        sub = [[a[i][j] for j in idx] for i in idx]
        highest = max(positive_roots(sub), key=sum)
        coeffs = 1
        for m in highest:
            coeffs *= m
        order *= factorial(len(idx)) * det(sub) * coeffs
    return order
