"""Quantum-enveloping-algebra generators and the two-parameter deformation.

Two changes of variables are verified on top of the one-parameter algebra:

- the z-generators z1 = x1/eps, z2 = x2/lambda, z3 = x3/lambda with
  lambda = eps mu and mu^2 = 2 A(eps^2) sinh(2 eps)/eps, a unit for every
  nonzero A(0), under which the relations become the standard
  quantum-enveloping presentation with [z2, z3] = sinh(h z1)/sinh(h) at
  h = 2 eps.  Only mu^2 is ever built: the relations fix the product of
  the z2 and z3 scalings, since z2 -> c z2, z3 -> z3/c is an automorphism.
  They are checked cross-multiplied through eps^2 mu^2 (no inverse
  needed), and again on the elements x1, x2/mu^2 and x3, whose brackets
  are those of x1, x2/mu and x3/mu; every scalar is a power series in eps.

- the xi-generators with independent parameters (eps, h): the rules of
  ``pbw_rules`` over two-parameter scalars, onto which one exact base
  change carries the x bialgebra (``base_change_check``), so xi's
  confluence and bialgebra axioms are not checked again.  Its h -> 0
  limit recovers the enveloping algebra with bracket scaled by eps, its
  eps -> 0 limit the h-deformed commutative coalgebra.

Sign convention: the printed source relations give the exponential letter
the same scalar e^{+eps h} against xi2 and xi3; that choice contradicts
[xi1, xi3] = -2 eps xi3 (the coideal check fails with it), so the xi3 rule
uses e^{-eps h}.  The discrepancy is noted on that check in `check uh`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List

from . import coalg
from .ncalg import (
    DEFAULT_A, EM, EP, M_EM, M_EP, M_X1, M_X2, M_X3, NCElement, PbwMonomial,
    RewriteSystem, UNIT, X1, X2, X3, add_term, pbw_rules,
)
from .series import BiSeries, BiSeriesRing, EpsSeries, SeriesDomainError


class PoleAtHZeroError(SeriesDomainError):
    """Raised when an element still has a 1/h part at the h -> 0 limit."""


@dataclass
class RelationCheck:
    name: str
    passed: bool
    detail: str = ""
    note: str = ""

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "detail": self.detail}
        if self.note:
            out["note"] = self.note
        return out


# ----------------------------------------------------------------------
# the z-generators inside the one-parameter algebra
# ----------------------------------------------------------------------

def mu_squared(system: RewriteSystem) -> EpsSeries:
    """mu^2 = 2 A(eps^2) sinh(2 eps)/eps, the unit with lambda^2 = eps^2 mu^2.

    A is read off the x3-x2 rule scalar c = eps A, so an eps^order
    coefficient of A is lost; no z-relation sees it, as each meets mu^2
    through the factor eps of [x2, x3].
    """
    c = dict(system.rules[X3, X2])[EM, EM]
    a = EpsSeries({e - 1: v for e, v in c.terms.items()}, system.ring.order)
    return a * system.ring.sinh_over_eps(2) * 2


def _exp_difference(system: RewriteSystem) -> NCElement:
    """e^{2x1} - e^{-2x1}, that is 2 sinh(2 x1) (E+^2 - E-^2 in xi-letters)."""
    return system.monomial_element(PbwMonomial(0, 0, 0, 2)) \
        - system.monomial_element(PbwMonomial(0, 0, 0, -2))


def _check_equal(name: str, lhs, rhs, note: str = "") -> RelationCheck:
    passed = lhs == rhs
    detail = "exact" if passed else f"lhs = {lhs}; rhs = {rhs}"
    return RelationCheck(name, passed, detail, note)


def z_commutators(system: RewriteSystem) -> List[RelationCheck]:
    """Verify the z-generator commutation relations inside the algebra.

    Each z-relation is an x-relation divided by the appropriate lambda
    factors; factors common to both sides cancel, and the z2-z3 relation is
    checked cross-multiplied by lambda^2 = eps^2 mu^2 and 2 sinh(2 eps),
    which needs no inverse.
    """
    ring = system.ring
    x1, x2, x3, ep, em = map(system.generator, (X1, X2, X3, EP, EM))
    eps = ring.eps_power(1, 1)
    e2, em2 = ring.exp(2), ring.exp(-2)
    # cross-multiplied form, exact for every admissible A: dividing by
    # lambda^2 would cost the top truncation orders when A has a tail
    lhs = system.commutator(x2, x3) * (ring.sinh(2) * 2)
    rhs = _exp_difference(system) * (ring.eps_power(1, 2) * mu_squared(system))
    return [
        _check_equal("[z1,z2] = 2 z2", system.commutator(x1, x2),
                     x2 * (2 * eps), note="checked as [x1,x2] = 2 eps x2; "
                     "the 1/(eps lambda) scaling cancels"),
        _check_equal("[z1,z3] = -2 z3", system.commutator(x1, x3),
                     x3 * (-2 * eps)),
        _check_equal("[z2,z3] = sinh(h z1)/sinh(h)", lhs, rhs,
                     note="verified as [x2,x3] * 2 sinh(2 eps) = "
                          "(e^{2x1} - e^{-2x1}) * lambda^2, exact for any "
                          "admissible A"),
        _check_equal("[z1, e^{+h z1/2}] = 0", system.commutator(x1, ep),
                     system.zero),
        _check_equal("[z1, e^{-h z1/2}] = 0", system.commutator(x1, em),
                     system.zero),
        _check_equal("e^{+h z1/2} z2 = e^{+h} z2 e^{+h z1/2}",
                     system.star(ep, x2), system.star(x2, ep) * e2),
        _check_equal("e^{-h z1/2} z2 = e^{-h} z2 e^{-h z1/2}",
                     system.star(em, x2), system.star(x2, em) * em2),
        _check_equal("e^{+h z1/2} z3 = e^{-h} z3 e^{+h z1/2}",
                     system.star(ep, x3), system.star(x3, ep) * em2),
        _check_equal("e^{-h z1/2} z3 = e^{+h} z3 e^{-h z1/2}",
                     system.star(em, x3), system.star(x3, em) * e2),
    ]


def z_commutators_scaled(system: RewriteSystem) -> List[RelationCheck]:
    """The same relations on explicit elements w1 = x1 = eps z1,
    w2 = x2/mu^2 and w3 = x3, for any nonzero A(0).  Scalars are central,
    so [w2, w3] = [x2/mu, x3/mu] = eps^2 [z2, z3], and [w1, w2], [w1, w3]
    hold for any scaling: every scalar is a power series, exact through the
    order.
    """
    ring = system.ring
    eps = ring.eps_power(1, 1)
    w1 = system.generator(X1)
    w2 = system.generator(X2) * mu_squared(system).invert()
    w3 = system.generator(X3)
    rhs = _exp_difference(system) * (eps * (ring.sinh_over_eps(2) * 2).invert())
    return [
        _check_equal("[z1,z2] = 2 z2 (explicit)", system.commutator(w1, w2),
                     w2 * (2 * eps)),
        _check_equal("[z1,z3] = -2 z3 (explicit)", system.commutator(w1, w3),
                     w3 * (-2 * eps)),
        _check_equal(
            "[z2,z3] = sinh(h z1)/sinh(h) (explicit)",
            system.commutator(w2, w3), rhs,
            note=f"verified as [x2/mu, x3/mu] = eps (e^{{2x1}} - e^{{-2x1}}) / "
                 f"(2 sinh(2 eps)/eps) with mu = lambda/eps, through "
                 f"eps^{ring.order}"),
    ]


def z_coproducts(system: RewriteSystem) -> List[RelationCheck]:
    """Verify the coproduct table keeps its shape under the z-substitution.

    The scale factors pass through both legs linearly, so the z-coproducts
    have exactly the generator-table form with e^{+-h z1/2} = e^{+-x1}.
    """
    def check(name, g, *pairs):
        return _check_equal(name, coalg.coproduct(system.generator(g)),
                            coalg.TensorElement(system, dict.fromkeys(
                                pairs, system.ring.one)))

    return [
        check("Delta z1 = 1 (x) z1 + z1 (x) 1", X1,
              (UNIT, M_X1), (M_X1, UNIT)),
        check("Delta z2 = z2 (x) e^{-h z1/2} + e^{+h z1/2} (x) z2", X2,
              (M_X2, M_EM), (M_EP, M_X2)),
        check("Delta z3 = z3 (x) e^{-h z1/2} + e^{+h z1/2} (x) z3", X3,
              (M_X3, M_EM), (M_EP, M_X3)),
        check("Delta e^{+h z1/2} group-like", EP, (M_EP, M_EP)),
        check("Delta e^{-h z1/2} group-like", EM, (M_EM, M_EM)),
    ]


# ----------------------------------------------------------------------
# the two-parameter system
# ----------------------------------------------------------------------

XI_SYMBOLS = {X1: "xi1", X2: "xi2", X3: "xi3", EP: "E+", EM: "E-"}


def xi_algebra(total: int = 8, h_min=None) -> RewriteSystem:
    """The two-parameter rewrite system over (eps, h) scalars, truncated at
    total degree ``total``.

    Generators xi1, xi2, xi3 and E+- = e^{+-h xi1/2}; the xi2-xi3 relation
    carries eps/(2 sinh h), Laurent in h (each xi3 moved past an xi2 brings
    one more 1/h).  ``h_min`` is read by nothing: it is kept only for the
    two frozen benchmark calls ``xi_algebra(8, -2)``.
    """
    ring = BiSeriesRing(total)
    s = ring.monomial(1, 1, 0) * (ring.sinh_h(1) * 2).invert()
    # shift 2 eps, x2-x3 coefficient eps/(2 sinh h), E+ past xi2 e^{+eps h}.
    # The printed relations give E+ e^{+eps h} against xi3 as well; that
    # contradicts [xi1,xi3] = -2 eps xi3 and the coideal property, so xi3
    # gets e^{-eps h} like x3 in the one-parameter algebra.
    rules = pbw_rules(ring.one, ring.monomial(2, 1, 0), s,
                      ring.exp(1, 1, 1), ring.exp(-1, 1, 1))
    return RewriteSystem(ring, rules, XI_SYMBOLS, label="xi")


def base_change_check(x: RewriteSystem, xi: RewriteSystem) -> RelationCheck:
    """phi: x -> xi is a bialgebra isomorphism, checked cross-multiplied
    (nothing is inverted).  phi maps eps^k -> (eps h/2)^k on the scalars,
    x1 -> (h/2) xi1 and x3 -> lambda xi3 with lambda = h sinh(h)
    A(eps^2 h^2/4), from ``DEFAULT_A`` and sinh h, never a rule scalar; it
    fixes x2 and E+-.  Checked: phi of each x rule is u(left side) times
    the xi rule (both systems have the words of ``pbw_rules``, in its
    order; u(word) is the product of its letter factors), and
    Delta_xi phi = (phi (x) phi) Delta_x on the five letters.

    h and sinh(h)/h are units of xi's Laurent-in-h ring, so phi maps
    letters and relations to unit multiples of letters and relations, and
    x's ideal onto xi's; the rewriting systems correspond term by term, so
    termination and confluence transfer (Bergman, Adv. Math. 29, 1978), the
    PBW bases correspond, and phi is an isomorphism of the quotients.  As
    it commutes with Delta, xi's coideal property, coassociativity and
    counit follow from criteria 1, 4 and 5.  It says nothing about xi's
    multiplication tables.  lambda starts at total degree 2, so x3.x2 sees
    xi's scalar eps/(2 sinh h) only through total - 2 (and passes on its
    truncated top coefficient); below total 2 lambda is 0, as the detail
    says.
    """
    ring = xi.ring

    def base(c: EpsSeries) -> BiSeries:
        return BiSeries({(k, k): (n, d << k) for k, (n, d) in c.terms.items()},
                        ring.total)

    lam = ring.monomial(1, 0, 1) * ring.sinh_h() * base(x.ring.even(DEFAULT_A))
    factor = {X1: ring.monomial(Fraction(1, 2), 0, 1), X3: lam}

    def unit(word) -> BiSeries:
        return math.prod((factor.get(g, ring.one) for g in word),
                         start=ring.one)

    failed = [pair for pair, terms in x.rules.items()
              if any(base(c) * unit(w) != unit(pair) * c_xi
                     for (w, c), (_, c_xi) in zip(terms, xi.rules[pair]))]
    for g in (X1, X2, X3, EP, EM):
        image = {}
        for (left, right), c in coalg.coproduct(x.generator(g)).terms.items():
            add_term(image, (left, right),
                     base(c) * unit(left.word()) * unit(right.word()))
        if coalg.TensorElement(xi, image) \
                != coalg.coproduct(xi.generator(g) * unit((g,))):
            failed.append((g,))
    if failed:
        detail = "fails on " + ", ".join(
            ".".join(x.symbols[g] for g in w) for w in failed)
    elif lam:
        detail = "exact"
    else:
        detail = (f"lambda starts at total degree 2, above the truncation "
                  f"{ring.total}: x3 maps to 0")
    return RelationCheck("x -> xi base change is a bialgebra isomorphism "
                         "(11 rules, 5 letters)", not failed, detail)


def xi_relation_checks(system: RewriteSystem) -> List[RelationCheck]:
    ring = system.ring
    xi1, xi2, xi3, ep, em = map(system.generator, (X1, X2, X3, EP, EM))
    eps = ring.monomial(1, 1, 0)
    s = eps * (ring.sinh_h(1) * 2).invert()
    return [
        _check_equal("[xi1,xi2] = 2 eps xi2", system.commutator(xi1, xi2),
                     xi2 * (eps * 2)),
        _check_equal("[xi1,xi3] = -2 eps xi3", system.commutator(xi1, xi3),
                     xi3 * (eps * -2)),
        _check_equal("[xi2,xi3] = eps sinh(h xi1)/sinh(h)",
                     system.commutator(xi2, xi3), _exp_difference(system) * s,
                     note="sinh(h xi1) written as (E+^2 - E-^2)/2"),
        _check_equal("[xi1, E+] = 0", system.commutator(xi1, ep), system.zero),
        _check_equal("[xi1, E-] = 0", system.commutator(xi1, em), system.zero),
        _check_equal("E+ xi2 = e^{+eps h} xi2 E+", system.star(ep, xi2),
                     system.star(xi2, ep) * ring.exp(1, 1, 1)),
        _check_equal("E+ xi3 = e^{-eps h} xi3 E+", system.star(ep, xi3),
                     system.star(xi3, ep) * ring.exp(-1, 1, 1),
                     note="sign opposite to the printed relation; forced by "
                          "[xi1,xi3] and the coideal property"),
        _check_equal("E+ E- = 1", system.star(ep, em), system.one),
    ]


# ----------------------------------------------------------------------
# limits
# ----------------------------------------------------------------------

def expand_exponentials(f: NCElement) -> NCElement:
    """Rewrite each E^m factor as its exponential series in h xi1/2.

    E^m = sum_k (m/2)^k h^k xi1^k / k!; the xi1 powers enter at the position
    of the E-block (rightmost), so each term is re-normal-ordered with the
    star product.  Coefficients pick up positive powers of h, so the series
    terminates within the total-degree truncation.
    """
    system = f.system
    ring = system.ring
    out = {}
    for mono, c in f.terms.items():
        if mono.m == 0:
            add_term(out, mono, c)
            continue
        prefix = system.monomial_element(
            PbwMonomial(mono.n1, mono.n2, mono.n3, 0))
        half_m, k, fact = Fraction(mono.m, 2), 0, Fraction(1)
        while True:
            scalar = c * ring.monomial(half_m ** k / fact, 0, k)
            if scalar.is_zero():  # and so for every larger k: c h^k truncates
                break
            term = system.star(
                prefix, system.monomial_element(PbwMonomial(k, 0, 0, 0)))
            for key, cc in term.terms.items():
                add_term(out, key, cc * scalar)
            k += 1
            fact *= k
    return NCElement(system, out)


def limit_h_to_zero(obj):
    """h -> 0: exponential letters expand, and the constant-h part remains.

    Raises PoleAtHZeroError when a 1/h term survives the expansion (the
    limit then does not exist).  Accepts elements and 2-leg tensors; the
    result lives in the same system with coefficients free of h.
    """
    if isinstance(obj, coalg.TensorElement):
        system = obj.system
        terms = {}
        for key, c in obj.terms.items():
            # cartesian product over the expanded legs
            acc = [((), c)]
            for m in key:
                leg = expand_exponentials(system.monomial_element(m)).terms
                acc = [(ks + (m2,), cc * c2)
                       for ks, cc in acc for m2, c2 in leg.items()]
            for ks, cc in acc:
                add_term(terms, ks, cc)
        expanded = coalg.TensorElement(system, terms, obj.legs)
    else:
        expanded = expand_exponentials(obj)
    return expanded.map_coefficients(_h_constant_scalar)


def _h_constant_scalar(c: BiSeries) -> BiSeries:
    if c.h_pole_order() < 0:
        raise PoleAtHZeroError(f"pole at h = 0 remains in {c}")
    return BiSeries({k: v for k, v in c.terms.items() if k[1] == 0}, c.total)


def limit_eps_to_zero(obj):
    """eps -> 0: keep the eps-constant slice of every coefficient.

    Commutators die (they are O(eps)); the coproducts keep their
    h-deformation.  Accepts elements and tensors.
    """
    return obj.map_coefficients(lambda c: c.eps_slice(0))


def limits_report(system: RewriteSystem) -> List[RelationCheck]:
    """The four corners: both limits of the commutators and coproducts."""
    ring = system.ring
    xi1, xi2, xi3 = map(system.generator, (X1, X2, X3))
    eps = ring.monomial(1, 1, 0)
    c12 = system.commutator(xi1, xi2)
    c23 = system.commutator(xi2, xi3)
    dxi2 = coalg.coproduct(xi2)
    prim = coalg.TensorElement(system, {(M_X2, UNIT): ring.one,
                                        (UNIT, M_X2): ring.one})
    return [
        _check_equal("h->0: [xi2,xi3] -> eps xi1", limit_h_to_zero(c23),
                     xi1 * eps),
        _check_equal("h->0: [xi1,xi2] -> 2 eps xi2 (unchanged)",
                     limit_h_to_zero(c12), xi2 * (eps * 2)),
        _check_equal("h->0: Delta xi2 -> primitive", limit_h_to_zero(dxi2),
                     prim),
        _check_equal("eps->0: [xi1,xi2] -> 0", limit_eps_to_zero(c12),
                     system.zero),
        _check_equal("eps->0: [xi1,xi3] -> 0",
                     limit_eps_to_zero(system.commutator(xi1, xi3)),
                     system.zero),
        _check_equal("eps->0: [xi2,xi3] -> 0", limit_eps_to_zero(c23),
                     system.zero),
        _check_equal("eps->0: Delta xi2 unchanged", limit_eps_to_zero(dxi2),
                     dxi2),
        _check_equal("both limits: [xi2,xi3] -> 0",
                     limit_eps_to_zero(limit_h_to_zero(c23)), system.zero),
    ]
