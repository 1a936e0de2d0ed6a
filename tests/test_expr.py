"""Expression language: parsing, printing round trip, evaluation."""

import random
from fractions import Fraction

import pytest

from sl2star.expr import (
    Add,
    ExprError,
    MixedAlphabetError,
    Mul,
    Num,
    Pow,
    Sub,
    Sym,
    choose_alphabet,
    evaluate,
    parse,
    print_expr,
    tokenize,
)
from sl2star import coalg
from sl2star.ncalg import PbwMonomial, X1, X2
from sl2star.uhsl2 import xi_algebra


def test_parse_products_left_associative():
    ast = parse("x3*x2*x1")
    assert ast == Mul(Mul(Sym("x3"), Sym("x2")), Sym("x1"))


def test_parse_difference_of_products():
    ast = parse("x2*x3 - x3*x2")
    assert ast == Sub(Mul(Sym("x2"), Sym("x3")), Mul(Sym("x3"), Sym("x2")))


def test_parse_scalar_series_multiplier():
    ast = parse("e+*x2 - (1+2*eps)*x2*e+")
    inner = Add(Num(Fraction(1)), Mul(Num(Fraction(2)), Sym("eps")))
    assert ast == Sub(Mul(Sym("e+"), Sym("x2")),
                      Mul(Mul(inner, Sym("x2")), Sym("e+")))


def test_parse_powers_and_rationals():
    assert parse("x1^3") == Pow(Sym("x1"), 3)
    assert parse("2/3") == Num(Fraction(2, 3))
    assert parse("eps^2") == Pow(Sym("eps"), 2)


def test_parse_precedence():
    assert parse("x1 + x2*x3") == Add(Sym("x1"), Mul(Sym("x2"), Sym("x3")))
    assert parse("x1*x2^2") == Mul(Sym("x1"), Pow(Sym("x2"), 2))


def test_parse_errors():
    with pytest.raises(ExprError):
        parse("x1 +")
    with pytest.raises(ExprError):
        parse("(x1")
    with pytest.raises(ExprError):
        parse("x9")
    with pytest.raises(ExprError):
        parse("x1 $ x2")
    with pytest.raises(ExprError):
        parse("x1^eps")
    with pytest.raises(ExprError):
        parse("x1 x2 extra)")
    with pytest.raises(ExprError):
        parse("-x1")  # no unary minus in the grammar


def test_zero_denominator_is_refused_at_its_literal():
    with pytest.raises(ExprError, match=r"zero denominator in '1/0' \(column 1\)") as err:
        parse("1/0*x1")
    assert err.value.pos == 0
    with pytest.raises(ExprError, match=r"'3/00' \(column 4\)"):
        parse("x1+3/00")


def test_tokenizer_fused_exponential_letters():
    kinds = [(t.kind, t.text) for t in tokenize("e+ + E-")]
    assert kinds[:3] == [("SYMBOL", "e+"), ("OP", "+"), ("SYMBOL", "E-")]


def random_ast(rng, depth=0):
    choice = rng.randrange(6 if depth < 4 else 2)
    if choice == 0:
        return Num(Fraction(rng.randrange(0, 30), rng.randrange(1, 9)))
    if choice == 1:
        return Sym(rng.choice(["x1", "x2", "x3", "e+", "e-", "eps"]))
    if choice == 2:
        return Add(random_ast(rng, depth + 1), random_ast(rng, depth + 1))
    if choice == 3:
        return Sub(random_ast(rng, depth + 1), random_ast(rng, depth + 1))
    if choice == 4:
        return Mul(random_ast(rng, depth + 1), random_ast(rng, depth + 1))
    base = random_ast(rng, depth + 1)
    while isinstance(base, Pow):  # the grammar cannot express (a^b)^c
        base = random_ast(rng, depth + 1)
    return Pow(base, rng.randrange(0, 5))


def test_print_parse_roundtrip_random_asts():
    rng = random.Random(77)
    for _ in range(300):
        ast = random_ast(rng)
        assert parse(print_expr(ast)) == ast


def test_choose_alphabet():
    assert choose_alphabet(parse("x1*x2")) == "x"
    assert choose_alphabet(parse("xi1*E+")) == "xi"
    assert choose_alphabet(parse("eps")) == "x"
    assert choose_alphabet(parse("h*xi2")) == "xi"
    assert choose_alphabet(parse("h")) == "xi"
    with pytest.raises(MixedAlphabetError):
        choose_alphabet(parse("x1*xi1"))
    with pytest.raises(MixedAlphabetError):
        choose_alphabet(parse("h*x2"))


def random_xi_expression(rng):
    """One or two products of up to three powers of xi letters, the second
    times h, the whole squared at random."""
    letters = ("xi1", "xi2", "xi3", "E+", "E-", "xi2", "xi3")

    def product():
        return "*".join(f"{rng.choice(letters)}^{rng.randint(1, 3)}"
                        for _ in range(rng.randint(1, 3)))

    text = product()
    if rng.random() < 0.5:
        text = f"({text}) {rng.choice('+-')} h*({product()})"
    if rng.random() < 0.3:
        text = f"({text})^2"
    return text


def test_expressions_with_h_poles_evaluate_and_take_coproducts():
    """The coproduct of a normal-ordered monomial moves no xi3 past an xi2,
    so it keeps the h poles of the value and adds none."""
    rng = random.Random(13)
    xi = xi_algebra(8)
    deep = 0
    for _ in range(200):
        value = evaluate(parse(random_xi_expression(rng)), xi)
        pole = min((c.h_pole_order() for c in value.terms.values()), default=0)
        delta = coalg.coproduct(value)
        assert min((c.h_pole_order() for c in delta.terms.values()),
                   default=0) == pole
        deep += pole < -2
    # 11 of the 200 values keep a pole deeper than h^-2
    assert deep == 11


def test_eval_examples(xsys):
    got = evaluate(parse("x2*x1"), xsys)
    assert got.terms == {
        PbwMonomial(1, 1, 0, 0): xsys.ring.one,
        PbwMonomial(0, 1, 0, 0): xsys.ring.eps_power(-2, 1),
    }
    assert evaluate(parse("e+*e-"), xsys) == xsys.one
    assert evaluate(parse("0"), xsys).is_zero()


def test_eval_scalar_and_mixed(xsys):
    assert evaluate(parse("(1+2*eps)*x2"), xsys) \
        == xsys.generator(X2) * (xsys.ring.one + xsys.ring.eps_power(2, 1))
    # scalar-only expressions promote to multiples of the unit
    assert evaluate(parse("eps^2 + 1"), xsys) \
        == xsys.one * (xsys.ring.one + xsys.ring.eps_power(1, 2))
    # element + scalar promotes the scalar
    assert evaluate(parse("x1 + 1"), xsys) \
        == xsys.generator(X1) + xsys.one
    assert evaluate(parse("x1^0"), xsys) == xsys.one


def test_eval_relation_difference_is_zero(xsys):
    rel = "e+*x2 - (" + _exp2_text(xsys) + ")*x2*e+"
    assert evaluate(parse(rel), xsys).is_zero()


def _exp2_text(system):
    return str(system.ring.exp(2))


def test_eval_xi_expression():
    xi = xi_algebra(8)
    got = evaluate(parse("xi2*xi1"), xi)
    assert got.terms == {
        PbwMonomial(1, 1, 0, 0): xi.ring.one,
        PbwMonomial(0, 1, 0, 0): xi.ring.monomial(-2, 1, 0),
    }
    assert evaluate(parse("h*xi1"), xi) \
        == xi.generator(X1) * xi.ring.monomial(1, 0, 1)


def test_eval_wrong_alphabet_symbol(xsys):
    with pytest.raises(MixedAlphabetError):
        evaluate(parse("xi1"), xsys)
