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

- the xi-generators with independent parameters (eps, h), realized as a
  second rewrite system over two-parameter scalars.  Its h -> 0 limit
  recovers the enveloping algebra with bracket scaled by eps, its eps -> 0
  limit the h-deformed commutative coalgebra; specializing h := 2 eps
  matches the z-relations after the bracket rescaling by eps.

Sign convention: the printed source relations give the exponential letter
the same scalar e^{+eps h} against xi2 and xi3; that choice contradicts
[xi1, xi3] = -2 eps xi3 (the coideal check fails with it), so the xi3 rule
uses e^{-eps h}.  The discrepancy is noted on that check in `check uh`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List

from . import coalg
from .ncalg import (
    EM, EP, M_EM, M_EP, M_X1, M_X2, M_X3, NCElement, PbwMonomial,
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
    return c._wrap({k: v for k, v in c.terms.items() if k[1] == 0})


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


# ----------------------------------------------------------------------
# specialization h := 2 eps against the z-relations
# ----------------------------------------------------------------------

def _specialize(f: NCElement, order: int, factor=1) -> dict:
    """Coefficients of a two-parameter element under h -> 2 eps, times
    ``factor``, as plain {monomial: EpsSeries} data (in neither system)."""
    out = {}
    for mono, c in f.terms.items():
        s = c.specialize_h(2, order) * factor
        if not s.is_zero():
            out[mono] = s
    return out


def specialization_report(xi: RewriteSystem,
                          z: RewriteSystem) -> List[RelationCheck]:
    """Check that h := 2 eps collapses the xi-relations onto the z-relations
    of ``z`` (same order; its A does not enter) with the bracket rescaled by
    eps and the exponential-letter scalars at e^{2 eps^2}."""
    zring = z.ring
    total = zring.order
    return [
        # bracket relations: specialized xi-commutator == eps * z-commutator
        _check_equal(
            "[xi1,xi2]|_{h=2eps} = eps * (2 z2)",
            _specialize(xi.commutator(xi.generator(X1), xi.generator(X2)),
                        total),
            dict((z.generator(X2) * zring.eps_power(2, 1)).terms)),
        # cross-multiplied by 2 sinh(2 eps), as in z_commutators: the
        # eps^total term of each specialized scalar lands above the truncation
        _check_equal(
            "[xi2,xi3]|_{h=2eps} = eps * sinh(2 eps z1)/sinh(2 eps)",
            _specialize(xi.commutator(xi.generator(X2), xi.generator(X3)),
                        total, zring.sinh(2) * 2),
            dict((_exp_difference(z) * zring.eps_power(1, 1)).terms),
            note=f"verified as [xi2,xi3]|_{{h=2eps}} * 2 sinh(2 eps) = "
                 f"eps (e^{{2x1}} - e^{{-2x1}}); sees the xi scalars through "
                 f"eps^{total - 1}"),
        # exponential-letter scalars: e^{+-eps h} at h = 2 eps against
        # e^{+-2 eps} stretched
        _check_equal("E+ xi2 scalar|_{h=2eps} = e^{2 eps} with eps -> eps^2",
                     xi.rules[(EP, X2)][0][1].specialize_h(2, total),
                     zring.exp(2).stretch(2)),
        _check_equal("E+ xi3 scalar|_{h=2eps} = e^{-2 eps} with eps -> eps^2",
                     xi.rules[(EP, X3)][0][1].specialize_h(2, total),
                     zring.exp(-2).stretch(2)),
    ]
