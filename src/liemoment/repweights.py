"""Weight systems of finite-dimensional representations.

Multiplicities come from the Freudenthal recursion run per simple factor
(products of irreducibles factor as tensor products, so multiplicities
multiply across factors; central-torus coordinates ride along unchanged).
Internally only dominant representatives carry multiplicities; orbits are
expanded on demand.
"""

from __future__ import annotations

from itertools import product
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
    """Freudenthal multiplicities on dominant weights of one simple factor."""
    n = frs.rank
    if n == 0:
        return {(): 1}
    cartan = frs.cartan
    cinv_t = transpose(inverse(cartan))
    bounds = [qfloor(b) for b in matvec(cinv_t, lam)]

    dominant: List[Tuple[int, Vec]] = []
    for ks in product(*(range(b + 1) for b in bounds)):
        mu = lam
        for i, k in enumerate(ks):
            if k:
                mu = vsub(mu, tuple(x * k for x in frs.simple_roots[i]))
        if all(x >= 0 for x in mu):
            dominant.append((sum(ks), mu))
    dominant.sort()

    rho = qv([1] * n)
    lam_rho = vadd(lam, rho)
    norm_lam = frs.inner(lam_rho, lam_rho)
    mults: Dict[Vec, int] = {}
    for height, mu in dominant:
        if height == 0:
            mults[mu] = 1
            continue
        acc = Q(0)
        for alpha in frs.positive_roots:
            k = 1
            while True:
                nu = vadd(mu, tuple(x * k for x in alpha))
                dom, _ = dominantize(frs, nu)
                m = mults.get(dom)
                if m is None:
                    break
                acc += m * frs.inner(nu, alpha)
                k += 1
        mu_rho = vadd(mu, rho)
        den = norm_lam - frs.inner(mu_rho, mu_rho)
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


def union_weights(systems: Sequence[WeightSystem], rs: RootSystem = None) -> WeightSystem:
    """Multiplicity-wise sum of weight systems over a common root system."""
    systems = list(systems)
    if not systems:
        if rs is None:
            raise DomainError("union of an empty list needs an explicit root system")
        return WeightSystem(rs, {})
    first = systems[0].rs
    for s in systems[1:]:
        if s.rs.spec != first.spec:
            raise ShapeError("weight systems over different root systems")
    out: Dict[Vec, int] = {}
    for s in systems:
        for mu, m in s._dominant.items():
            out[mu] = out.get(mu, 0) + m
    return WeightSystem(first, out)
