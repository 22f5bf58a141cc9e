"""Weight systems of finite-dimensional representations.

Multiplicities come from the Freudenthal recursion run per simple factor
(products of irreducibles factor as tensor products, so multiplicities
multiply across factors; central-torus coordinates ride along unchanged).
Internally only dominant representatives carry multiplicities; orbits are
expanded on demand.
"""

from __future__ import annotations

from itertools import product
from math import prod
from operator import mul
from typing import Dict, List, Sequence, Tuple

from .errors import DomainError, ShapeError
from .exactq import Q, Vec, inverse, matvec, qfloor, qstr, qv, transpose, vadd, vsub
from .rootsys import MAX_ENUMERATION, RootSystem, dominantize, weyl_orbit


class WeightSystem:
    """Finite map weight -> multiplicity for one (possibly reducible) module."""

    def __init__(self, rs: RootSystem, dominant_mults: Dict[Vec, int]):
        self.rs = rs
        self._dominant = dict(dominant_mults)
        self._expanded = None

    @property
    def entries(self) -> Dict[Vec, int]:
        """Full weight -> multiplicity map (Weyl-orbit expansion, cached)."""
        if self._expanded is None:
            out = {}
            for mu, m in self._dominant.items():
                for nu in weyl_orbit(self.rs, mu):
                    out[nu] = out.get(nu, 0) + m
            self._expanded = out
        return self._expanded

    @property
    def dominant_entries(self) -> Dict[Vec, int]:
        return dict(self._dominant)

    def mult(self, nu: Vec) -> int:
        return self.entries.get(tuple(nu), 0)

    def dim(self) -> int:
        return sum(self.entries.values())

    def to_json(self):
        return [
            {"weight": [qstr(x) for x in w], "mult": m}
            for w, m in sorted(self.entries.items())
        ]


def _require_dominant_integral(rs: RootSystem, lam: Vec):
    rs.check_dim(lam)
    if not rs.is_dominant(lam):
        raise DomainError("highest weight must be dominant")
    if not rs.is_integral(lam):
        raise DomainError("highest weight must be integral")


def _factor_dominant_mults(frs: RootSystem, lam: Vec) -> Dict[Vec, int]:
    """Freudenthal multiplicities on dominant weights of one simple factor.

    Pairings go through roots: (nu, alpha) = d_alpha <nu, alpha coroot>,
    and for mu = lam - sum_i k_i alpha_i, |lam+rho|^2 - |mu+rho|^2 =
    sum_i k_i d_i (lam_i + mu_i + 2).  A box of more than MAX_ENUMERATION
    coefficient tuples is refused."""
    cinv_t = transpose(inverse(frs.cartan))
    bounds = [qfloor(b) for b in matvec(cinv_t, lam)]
    size = prod(b + 1 for b in bounds)
    if size > MAX_ENUMERATION:
        raise DomainError("Freudenthal box of %d tuples exceeds the limit of %d"
                          % (size, MAX_ENUMERATION))

    dominant: List[Tuple[int, Vec, Tuple[int, ...]]] = []
    for ks in product(*(range(b + 1) for b in bounds)):
        mu = lam
        for i, k in enumerate(ks):
            if k:
                mu = vsub(mu, tuple(x * k for x in frs.simple_roots[i]))
        if all(x >= 0 for x in mu):
            dominant.append((sum(ks), mu, ks))
    dominant.sort()

    simple_d = [frs._half_length[alpha] for alpha in frs._simple]
    roots = [(alpha, frs._coroot_of[alpha], frs._half_length[alpha])
             for alpha in frs.positive_roots]
    mults: Dict[Vec, int] = {}
    for height, mu, ks in dominant:
        if height == 0:
            mults[mu] = 1
            continue
        mu_int = tuple(map(int, mu))
        acc = Q(0)
        for alpha, check, d_alpha in roots:
            # <mu + k alpha, alpha coroot> = <mu, alpha coroot> + 2k
            pairing = sum(map(mul, check, mu_int))
            total = 0
            k = 1
            while True:
                nu = tuple(x + k * a for x, a in zip(mu_int, alpha))
                dom, _ = dominantize(frs, nu)
                m = mults.get(dom)
                if m is None:
                    break
                total += m * (pairing + 2 * k)
                k += 1
            acc += d_alpha * total
        den = sum(k * d * (a + b + 2) for k, d, a, b in zip(ks, simple_d, lam, mu))
        val = 2 * acc / den
        if val.denominator != 1 or val <= 0:
            raise ArithmeticError("non-integral multiplicity for %r" % (mu,))
        mults[mu] = int(val)
    return mults


def irrep_weights(rs: RootSystem, lam: Vec) -> WeightSystem:
    """All weights with multiplicities of the irreducible with highest weight lam.

    Modules of dimension above MAX_ENUMERATION are refused."""
    size = dim(rs, lam)
    if size > MAX_ENUMERATION:
        raise DomainError("module of dimension %d exceeds the limit of %d"
                          % (size, MAX_ENUMERATION))
    factor_mults = []
    off = 0
    for frs in rs.factor_systems:
        n = frs.rank
        factor_mults.append(_factor_dominant_mults(frs, lam[off : off + n]))
        off += n
    torus_part = lam[rs.ss_rank :]

    combined: Dict[Vec, int] = {}
    for combo in product(*(fm.items() for fm in factor_mults)) if factor_mults else [()]:
        vec: Tuple = ()
        mult = 1
        for w, m in combo:
            vec = vec + w
            mult *= m
        combined[vec + torus_part] = mult
    return WeightSystem(rs, combined)


def dim(rs: RootSystem, lam: Vec) -> int:
    """Dimension by the product formula over positive coroots.

    It cross-checks the Freudenthal weights, and irrep_weights compares it
    with MAX_ENUMERATION before enumerating anything."""
    _require_dominant_integral(rs, lam)
    rho = qv([1] * rs.ss_rank + [0] * rs.torus_rank)
    lam_rho = vadd(lam, rho)
    num = Q(1)
    den = Q(1)
    for alpha in rs.positive_roots:
        num *= rs.coroot_pairing(alpha, lam_rho)
        den *= rs.coroot_pairing(alpha, rho)
    val = num / den
    if val.denominator != 1:
        raise ArithmeticError("non-integral dimension")
    return int(val)


def pi_lambda(system: WeightSystem, lam: Vec) -> Tuple[Vec, ...]:
    """Weights of the system minus those trimmed at lam, sorted.

    The weight lam - alpha is trimmed when (lam, coroot alpha) = 1 for the
    positive root alpha AND lam - alpha has multiplicity one in the system:
    a repeated weight restores the trimmed direction on the slice.  For an
    irreducible with highest weight lam, lam - alpha = s_alpha(lam) lies in
    the Weyl orbit of lam, so the multiplicity clause always holds there.
    """
    rs = system.rs
    _require_dominant_integral(rs, lam)
    excluded = set()
    for alpha in rs.positive_roots:
        if rs.coroot_pairing(alpha, lam) == 1:
            w = vsub(lam, alpha)
            if system.mult(w) == 1:
                excluded.add(w)
    return tuple(sorted(w for w in system.entries if w not in excluded))


def union_weights(systems: Sequence[WeightSystem]) -> WeightSystem:
    """Multiplicity-wise sum of a nonempty list of weight systems over a
    common root system."""
    first = systems[0].rs
    for s in systems[1:]:
        if s.rs.spec != first.spec:
            raise ShapeError("weight systems over different root systems")
    out: Dict[Vec, int] = {}
    for s in systems:
        for mu, m in s._dominant.items():
            out[mu] = out.get(mu, 0) + m
    return WeightSystem(first, out)
