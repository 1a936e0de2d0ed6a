"""The four workloads: their inputs, their ops and the checks of their outputs.

Each workload is built from a seed alone and holds one round of ops.  A run
repeats the round, so every round attempts the same ops.  The seed picks
every input, but each seed gets the same mix of cheap and costly ops: the
workload draws a pool of candidates and keeps one per target cost of a cost
model (see ``match_costs``).  Plain seeded draws spread too much from seed
to seed: their op costs are heavy-tailed or come in steps, and the median
and tail ops of 200-400 plain draws moved by 0.1-0.45 of their value
between seeds (README.md gives the figures).

The targets come in groups of (count, low cost, high cost), placed on the
cost distribution of plain draws: cheap inputs spread in log cost, a
plateau of equal cost that holds the median op, dearer inputs, and a
plateau that holds the tail op.  So the median and the tail each rest on a
group of ops, not on one op; README.md gives the share of plain draws below
each group.

An op's output is checked the first time it is produced, against the
representation oracle (at every order of its series) or the closed form; a
later output of the same op must then have the same digest as the first.
"""

from __future__ import annotations

import bisect
import math
import random
from fractions import Fraction

import numpy as np

import oracle
from sl2star import coalg, poisson
from sl2star.ncalg import Gen, PbwMonomial, x_algebra
from sl2star.uhsl2 import xi_algebra

X1, X2, X3, EP, EM = 1, 2, 3, 4, 5

#: series truncation order of both rewrite systems
ORDER = oracle.ORDER

# The cost model that chooses the rewriting inputs.  For each out-of-order
# pair: the words that replace it, each with the exponent support of its
# coefficient (None for the coefficient 1, which costs no multiplication).
# Supports follow from the relations: eps and eps A give {eps}, e^{+-2 eps}
# all orders up to the truncation; in the xi algebra eps/(2 sinh h) gives
# eps h^-1, eps h, ..., and e^{+-eps h} the powers (eps h)^k.
_EPS = frozenset([1])
_EXP = frozenset(range(ORDER + 1))
_BI_EPS = frozenset([(1, 0)])
_BI_S = frozenset((1, j) for j in range(-1, ORDER, 2))
_BI_EXP = frozenset((k, k) for k in range(ORDER // 2 + 1))


def _rules(eps, s, exp):
    return {
        (X2, X1): (((X1, X2), None), ((X2,), eps)),
        (X3, X1): (((X1, X3), None), ((X3,), eps)),
        (X3, X2): (((X2, X3), None), ((EP, EP), s), ((EM, EM), s)),
        (EP, X1): (((X1, EP), None),), (EM, X1): (((X1, EM), None),),
        (EP, X2): (((X2, EP), exp),), (EM, X2): (((X2, EM), exp),),
        (EP, X3): (((X3, EP), exp),), (EM, X3): (((X3, EM), exp),),
        (EP, EM): (((), None),), (EM, EP): (((), None),),
    }


COST_MODELS = {
    # rules, support of 1, product of supports, and the cost of one product
    # of two coefficient terms in visited words (fitted once to the
    # program's times)
    "x": (_rules(_EPS, _EPS, _EXP), frozenset([0]),
          lambda a, b: frozenset(i + j for i in a for j in b if i + j <= ORDER),
          1 / 12),
    "xi": (_rules(_BI_EPS, _BI_S, _BI_EXP), frozenset([(0, 0)]),
           lambda a, b: frozenset((i + k, j + l) for i, j in a for k, l in b
                                  if i + j + k + l <= ORDER),
           1 / 10),
}


def rewrite_cost(word: tuple, algebra: str) -> float:
    """Modelled cost of a leftmost rewriting of ``word`` without merging.

    The unit is one visited word; each product of coefficient terms adds
    the model's pair weight.  The program visits exactly these words today,
    and the model's cost explains its time per word to about a fifth.
    """
    rules, one, product, pair_weight = COST_MODELS[algebra]
    memo = {}

    def walk(w, support):
        key = (w, support)
        found = memo.get(key)
        if found is None:
            visits, pairs = 1, 0
            for i in range(len(w) - 1):
                expansion = rules.get(w[i:i + 2])
                if expansion is not None:
                    for repl, coeff in expansion:
                        if coeff is None:
                            sub = walk(w[:i] + repl + w[i + 2:], support)
                        else:
                            pairs += len(support) * len(coeff)
                            sub = walk(w[:i] + repl + w[i + 2:], product(support, coeff))
                        visits += sub[0]
                        pairs += sub[1]
                    break
            found = memo[key] = (visits, pairs)
        return found

    visits, pairs = walk(word, one)
    return visits + pair_weight * pairs


def xi_inversions(word: tuple) -> int:
    """Pairs with xi3 before xi2; each costs one 1/h in the coefficients."""
    seen3 = 0
    inv = 0
    for g in word:
        if g == X3:
            seen3 += 1
        elif g == X2:
            inv += seen3
    return inv


def cost_targets(groups) -> list:
    """Target costs: for each (count, low, high), ``count`` costs spread
    evenly in log scale from low to high (all equal when low == high)."""
    out = []
    for count, low, high in groups:
        a, b = math.log(low), math.log(high)
        out += [math.exp(a + (b - a) * i / max(count - 1, 1)) for i in range(count)]
    return out


def match_costs(pool: list, targets: list, rng: random.Random) -> list:
    """Pick one distinct input of the pool, a list of (input, cost), per
    target, nearest in log cost.

    Targets are served from the largest down, as costly inputs are the rarest.
    """
    ranked = sorted(pool, key=lambda item: item[1])
    costs = [c for _, c in ranked]
    used = set()
    chosen = []
    for target in sorted(targets, reverse=True):
        j = bisect.bisect_left(costs, target)
        best = None
        for step in (-1, 1):
            k = j if step == 1 else j - 1
            while 0 <= k < len(ranked) and k in used:
                k += step
            if 0 <= k < len(ranked):
                dist = abs(math.log(costs[k] / target))
                if best is None or dist < best[0]:
                    best = (dist, k)
        if best is None:
            raise RuntimeError("input pool too small for the cost targets")
        used.add(best[1])
        chosen.append(ranked[best[1]][0])
    rng.shuffle(chosen)
    return chosen


def word_pool(rng: random.Random, size: int, lengths: tuple, algebra: str,
              exclude=(), accept=lambda w: True) -> list:
    pool = {}
    excluded = set(exclude)
    while len(pool) < size:
        w = tuple(rng.randint(X1, EM) for _ in range(rng.randint(*lengths)))
        if w not in pool and w not in excluded and accept(w):
            pool[w] = rewrite_cost(w, algebra)
    return list(pool.items())


def snapshot(value):
    """Plain-data copy of a program output, for exact comparison."""
    if isinstance(value, tuple):
        return tuple(snapshot(v) for v in value)
    return frozenset((key, frozenset(c.terms.items()))
                     for key, c in value.terms.items())


def digest(value) -> int:
    """Hash of an output's snapshot.  Later rounds compare digests, not
    kept copies: the copies of one round of bialgebra outputs took 70 MB,
    which the run's peak RSS would count as the program's."""
    return hash(snapshot(value))


def as_gens(word: tuple) -> tuple:
    return tuple(Gen(g) for g in word)


class Workload:
    """One round of ops plus the state they run against."""

    name = ""
    system = None

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.inputs = self.make_inputs()
        self._verified = {}

    def make_inputs(self) -> list:
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def verify(self, inp, out) -> bool:
        """Independent check of an output."""
        raise NotImplementedError

    def check(self, i: int, out) -> bool:
        first = self._verified.get(i)
        if first is None:
            if not self.verify(self.inputs[i], out):
                return False
            self._verified[i] = digest(out)
            return True
        return digest(out) == first

    def warm_up(self) -> None:
        """The untimed op of the set-up."""
        self.run(self.inputs[0])


class RewriteCold(Workload):
    """normal_form in x_algebra(8); the rewriting consults no cache."""

    name = "rewrite_cold"
    fixed = [(X3,) * n + (X2,) * n + (X1,) * n + (EM, EM) for n in (2, 3)]
    #: input of the warm-up op, the same for every seed
    warm_word = (X3, X2, X1, EP, X2, EM)
    lengths = (6, 12)
    pool_size = 2000
    # Cheap words, a plateau of equal cost that holds the median op, dearer
    # words, and a plateau that holds the tail percentile: the median and the
    # tail then rest on a group of words each, not on one word.
    groups = ((50, 2, 60), (60, 90, 90), (60, 120, 2000), (30, 2500, 2500))

    def make_inputs(self):
        self.system = x_algebra(ORDER, (4,))
        pool = word_pool(self.rng, self.pool_size, self.lengths, "x", self.fixed)
        words = match_costs(pool, cost_targets(self.groups), self.rng)
        self.module = oracle.WeightModule("x", self.lengths[1])
        return [as_gens(w) for w in self.fixed + words]

    def warm_up(self):
        self.run(as_gens(self.warm_word))

    def run(self, word):
        return self.system.normal_form(word)

    def verify(self, word, out):
        err = self.module.normal_form_error(word, out.terms)
        return err <= oracle.TOLERANCE


class XiRewrite(RewriteCold):
    """normal_form in xi_algebra(8, -2): scalars are two-parameter series.

    Three xi3-before-xi2 inversions give h^-3 terms, below the ring's Laurent
    bound of -2, so the words have at most two.
    """

    name = "xi_rewrite"
    fixed = []
    lengths = (5, 8)
    pool_size = 4000
    groups = ((100, 3, 25), (120, 40, 40), (120, 50, 150), (60, 200, 200))

    def make_inputs(self):
        self.system = xi_algebra(ORDER, -2)
        pool = word_pool(self.rng, self.pool_size, self.lengths, "xi",
                         accept=lambda w: xi_inversions(w) <= 2)
        words = match_costs(pool, cost_targets(self.groups), self.rng)
        self.module = oracle.WeightModule("xi", self.lengths[1], oracle.XI_EXACT_ORDER)
        return [as_gens(w) for w in words]


def basis_product_terms(a: tuple, b: tuple) -> int:
    """Number of basis monomials in the product of two basis monomials.

    Moving the x1 letters of b left past x2^a2 x3^a3 turns x1 into
    x1 + 2 eps (a3 - a2), which spreads over b1 + 1 powers unless the shift
    is 0; moving x2^b2 past x3^a3 gives, for j = 0 .. min(a3, b2) swaps,
    (e^{2x1} - e^{-2x1})^j with j + 1 distinct exponentials.
    """
    a1, a2, a3, _ = a
    b1, b2, _, _ = b
    x1_powers = 1 if b1 == 0 or a2 == a3 else b1 + 1
    return x1_powers * sum(j + 1 for j in range(min(a3, b2) + 1))


def coproduct_keys(mono: tuple) -> list:
    """(left, right) basis pairs of the coproduct of x1^a x2^b x3^c e^(e x1):
    x1 primitive, x2 and x3 twisted by e^{+-x1}, e^{+-x1} group-like."""
    a, b, c, e = mono
    return [((i, j, k, e + (b - j) + (c - k)), (a - i, b - j, c - k, e - j - k))
            for i in range(a + 1) for j in range(b + 1) for k in range(c + 1)]


def tensor_product_cost(f_monos, g_monos) -> int:
    """Modelled cost of Delta(f) * Delta(g): over all pairs of coproduct
    terms, the product of the term counts of the two leg products.  It
    explains the time of a bialgebra op to about a quarter."""
    df = {k for m in f_monos for k in coproduct_keys(m)}
    dg = {k for m in g_monos for k in coproduct_keys(m)}
    return sum(basis_product_terms(l1, l2) * basis_product_terms(r1, r2)
               for l1, r1 in df for l2, r2 in dg)


class BialgebraWarm(Workload):
    """f*g, Delta(f*g) and Delta(f)*Delta(g) with both caches filled."""

    name = "bialgebra_warm"
    #: total degree of each term of an element
    degrees = (1, 2, 3)
    pool_size = 1500
    # modelled costs, grouped as for the rewriting words
    groups = ((60, 40, 100), (100, 120, 120), (80, 130, 220), (60, 250, 250))

    def make_inputs(self):
        self.system = x_algebra(ORDER, (4,))
        shifts = 2 * max(self.degrees)
        self.module = oracle.WeightModule("x", shifts)
        pool = []
        for _ in range(self.pool_size):
            f, g = self._element(), self._element()
            pool.append(((f, g), tensor_product_cost(f.terms, g.terms)))
        return match_costs(pool, cost_targets(self.groups), self.rng)

    def _element(self):
        rng = self.rng
        ring = self.system.ring
        terms = {}
        for degree in self.degrees:
            while True:
                parts = [0, 0, 0, 0]
                for _ in range(degree):
                    parts[rng.randrange(4)] += 1
                mono = PbwMonomial(parts[0], parts[1], parts[2],
                                   parts[3] * rng.choice((1, -1)))
                if mono not in terms:
                    break
            value = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            terms[mono] = ring.eps_power(value, rng.randint(0, 2))
        return self.system.element(terms)

    def warm_up(self) -> None:
        """Run every op once, which fills the basis-star and coproduct caches."""
        for inp in self.inputs:
            self.run(inp)

    def run(self, pair):
        f, g = pair
        fg = self.system.star(f, g)
        return fg, coalg.coproduct(fg), coalg.star_tensor(coalg.coproduct(f),
                                                          coalg.coproduct(g))

    def verify(self, pair, out):
        f, g = pair
        fg, d_fg, d_prod = out
        if snapshot(d_fg) != snapshot(d_prod):
            return False
        m = self.module
        return (m.product_error(f.terms, g.terms, fg.terms) <= oracle.TOLERANCE
                and m.coproduct_error(f.terms, g.terms, d_fg.terms) <= oracle.TOLERANCE)


# Cobracket of the three coordinate directions of the dual group, as
# antisymmetric matrices: delta(G1) = kappa e2^e3, delta(G2) = e1^e2,
# delta(G3) = -e1^e3.
_E12 = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
_E13 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
_E23 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])


def integration_cost(x) -> int:
    """Modelled number of ``expm`` calls of ``fit_kappa_at`` at x.

    ``fit_kappa_at`` integrates the cobracket for kappa = 0 and 1 by
    composite Simpson rules of 8, 16, ... steps, each step count one
    matrix exponential per node, until two successive values agree to
    1e-10; each integration costs two more exponentials for the group
    point.  The model repeats this with the exponential of ad_X in closed
    form: ad_X = [[0, 0, 0], [-2 x2, 2 x1, 0], [-2 x3, 0, 2 x1]].
    """
    x1, x2, x3 = (float(v) for v in x)
    total = 0
    for kappa in (0.0, 1.0):
        d_x = kappa * x1 * _E23 + x2 * _E12 - x3 * _E13

        def simpson(steps):
            s = np.linspace(0.0, 1.0, steps + 1)
            grow = np.expm1(2.0 * x1 * s) / x1 if x1 else 2.0 * s
            a = np.zeros((steps + 1, 3, 3))
            a[:, 0, 0] = 1.0
            a[:, 1, 0] = -x2 * grow
            a[:, 2, 0] = -x3 * grow
            a[:, 1, 1] = a[:, 2, 2] = np.exp(2.0 * x1 * s)
            weights = np.full(steps + 1, 2.0)
            weights[1::2] = 4.0
            weights[0] = weights[-1] = 1.0
            f = np.einsum("nij,jk,nlk->nil", a, d_x, a)
            return np.einsum("n,nij->ij", weights, f) / (3.0 * steps)

        steps = 8
        calls = steps + 1
        prev = simpson(steps)
        while steps <= 4096:
            steps *= 2
            calls += steps + 1
            cur = simpson(steps)
            if np.max(np.abs(cur - prev)) < 1e-10:
                break
            prev = cur
        total += calls + 2
    return total


class PoissonLemma(Workload):
    """fit_kappa_at at points of the cube |x_i| <= 1."""

    name = "poisson_lemma"
    pool_size = 500
    # modelled expm calls, grouped as for the rewriting words; the calls
    # come in steps (1024, 1537, 2050, 3075, 4100, ...), so a plateau is one
    # step
    groups = ((40, 56, 767), (50, 1024, 1024), (60, 2050, 2050),
              (20, 3075, 3075), (30, 4100, 4100))
    #: largest change of the bivector that the fitted kappa may make against
    #: kappa = 8, |kappa - 8| |d bivector / d kappa|; the finite-difference
    #: Jacobian in bivector_at leaves up to a few 1e-10
    kappa_tol = 2e-9
    #: points with |x1| below this are not drawn: kappa does not act there
    #: and fit_kappa_at returns None
    min_x1 = 0.01
    #: relative residual bound of the integration lemma
    residual_tol = 1e-6
    #: the point of the untimed warm-up op
    warm_point = (0.5, -0.25, 0.75)

    def make_inputs(self):
        rng = self.rng
        pool = []
        while len(pool) < self.pool_size:
            x = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
            if abs(x[0]) >= self.min_x1:
                pool.append((x, integration_cost(x)))
        return [self._input(x) for x in match_costs(pool, cost_targets(self.groups), rng)]

    @staticmethod
    def _input(x):
        y = oracle.group_coords(x)
        a12, a13, a23 = oracle.alpha_upper(y)
        comp = np.array([[0.0, a12, a13], [-a12, 0.0, a23], [-a13, -a23, 0.0]])
        return np.array(x), poisson.BivectorSample(y, comp)

    def warm_up(self):
        self.run(self._input(self.warm_point))

    def run(self, inp):
        x, reference = inp
        return poisson.fit_kappa_at(x, reference)

    def verify(self, inp, out):
        x, _ = inp
        kappa, base, mult = out
        if kappa is None or not abs(kappa - 8.0) * np.linalg.norm(mult) <= self.kappa_tol:
            return False
        ref = np.array(oracle.alpha_upper(oracle.group_coords(x)))
        approx = base + 8.0 * mult
        rel = np.linalg.norm(approx - ref) / max(1.0, float(np.linalg.norm(ref)))
        return rel <= self.residual_tol

    def check(self, i, out):
        return self.verify(self.inputs[i], out)


WORKLOADS = {w.name: w for w in (RewriteCold, BialgebraWarm, XiRewrite, PoissonLemma)}
