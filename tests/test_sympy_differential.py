"""Differential tests of the Groebner engine against sympy.groebner.

Reduced Groebner bases are unique, so the engine and sympy must return the
same set of monic polynomials, over Q and over GF(32003).  Elimination is
checked against sympy's lex basis: its members free of the dropped
variables generate the elimination ideal, which sympy then re-bases in
grevlex on the kept variables.  Saturation (I : g^infinity) is checked the
same way, as the elimination of t from I + <1 - t*g>.  Normal forms over Q
are checked against the remainder of sympy.reduced by the reduced basis,
which is unique too.  Coefficients are rationals with denominators up to
7, so the engine's fraction-free scaling is exercised on every input.

The line route (one kept variable over a zero-dimensional ideal) is
checked on ideals whose generators have pure-power leading terms in 3 or
4 variables: the generator that eliminate and saturate_eliminate return
must be the last member of sympy's lex basis with the kept variable last,
over Q, GF(32003), GF(65537) and GF(2^31 - 1), where a product of two
residues no longer fits the int64 sums.  Fixed cases add a kept variable
that does not separate the points, a border normal form of several
reduction steps, and the unit ideal.

The univariate layer is checked against sympy's squarefree and real-root
routines on products of factors with repeated multiplicities and rational
coefficients, since only a non-constant gcd(f, f') changes the members of
the Sturm chain: the squarefree part up to a scalar, the squarefree
decomposition, the number of distinct real roots, one root in every
isolating bracket, and root counts on half-open intervals whose endpoints
are multiple roots.  The integer division and gcd that serve them, and
Rabin's irreducibility test modulo p that runs on the same division and
gcd over F_p, are checked against sympy's over Z and GF(p).
"""
from fractions import Fraction
from itertools import product, zip_longest
from math import prod

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from voronoi_cells import groebner  # noqa: E402
from voronoi_cells.exactmath import QQ, PolyRing, PrimeField  # noqa: E402
from voronoi_cells.exactmath.sturm import (  # noqa: E402
    count_real_roots,
    count_roots,
    dense_divmod,
    dense_gcd,
    isolate_real_roots,
    squarefree_part,
    sturm_chain,
)
from voronoi_cells.groebner import (  # noqa: E402
    eliminate,
    groebner_basis,
    is_zero_dimensional,
    normal_form,
    quotient_degree,
    saturate,
    saturate_eliminate,
)
from voronoi_cells.unifactor import (  # noqa: E402
    mod_p_irreducible,
    squarefree_decomposition,
)

P = 32003
BUDGET = 20_000
NAMES = ("x", "y", "z")
FIELDS = {"QQ": QQ, "GF": PrimeField(P)}
CHECKS = settings(max_examples=50, deadline=None, derandomize=True,
                  database=None)


def _term_map(nvars):
    monomials = [e for e in product(range(4), repeat=nvars) if sum(e) <= 3]
    coefficients = st.builds(Fraction,
                             st.sampled_from([-5, -4, -3, -2, -1,
                                              1, 2, 3, 4, 5]),
                             st.integers(1, 7))
    return st.dictionaries(st.sampled_from(monomials), coefficients,
                           min_size=1, max_size=4)


@st.composite
def systems(draw, min_vars=1):
    """(variable names, generator term maps): <= 3 variables, degree <= 3,
    <= 3 generators with small rational coefficients."""
    nvars = draw(st.integers(min_vars, 3))
    gens = draw(st.lists(_term_map(nvars), min_size=1, max_size=3))
    return NAMES[:nvars], gens


def _canonical(terms, field_name):
    """The monic multiple of a term map, as a frozenset of (exponents,
    coefficient); the normalising term is the largest in a fixed order."""
    lead = max(terms, key=lambda e: (sum(e), tuple(-v for v in reversed(e))))
    if field_name == "GF":
        inv = pow(int(terms[lead]), P - 2, P)
        return frozenset((e, int(c) * inv % P) for e, c in terms.items())
    return frozenset((e, Fraction(c) / terms[lead]) for e, c in terms.items())


def _ours(gb, field_name):
    return {_canonical(p.terms, field_name) for p in gb.polys}


def _sympy_terms(poly):
    return {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()}


def _theirs(basis, field_name):
    return {_canonical(_sympy_terms(p), field_name) for p in basis.polys}


def _sympy_groebner(polys, symbols, field_name, order):
    if field_name == "GF":
        return sympy.groebner(polys, *symbols, order=order, modulus=P)
    return sympy.groebner(polys, *symbols, order=order, domain="QQ")


def _sympy_free_of(polys, dropped, kept_symbols, field_name):
    """The grevlex basis, on the kept symbols, of the members of a lex
    basis free of the dropped symbols: they generate its elimination ideal."""
    free = [p for p in polys if not (p.free_symbols & dropped)]
    if not free:
        return set()
    return _theirs(_sympy_groebner(free, kept_symbols, field_name, "grevlex"),
                   field_name)


def _poly(ring, terms):
    return ring.from_terms({e: ring.field.coerce(c) for e, c in terms.items()})


def _expr(terms, symbols, field=QQ):
    """A sympy expression; over GF(p) from the coefficients' images mod p,
    since sympy's finite fields take no fractions."""
    if isinstance(field, PrimeField):
        coeffs = {e: field.coerce(c) for e, c in terms.items()}
    else:
        coeffs = {e: sympy.Rational(c.numerator, c.denominator)
                  for e, c in terms.items()}
    return sympy.Poly.from_dict(coeffs, *symbols).as_expr()


def _inputs(names, gens, field):
    ring = PolyRing(names, field=field)
    ours = [_poly(ring, g) for g in gens]
    symbols = sympy.symbols(names)
    theirs = [_expr(g, symbols, field) for g in gens]
    return ours, symbols, theirs


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@CHECKS
@given(system=systems())
def test_groebner_basis_matches_sympy(field_name, system):
    names, gens = system
    ours, symbols, theirs = _inputs(names, gens, FIELDS[field_name])
    gb = groebner_basis(ours, budget=BUDGET)
    reference = _sympy_groebner(theirs, symbols, field_name, "grevlex")
    assert _ours(gb, field_name) == _theirs(reference, field_name)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@CHECKS
@given(system=systems(min_vars=2), data=st.data())
def test_eliminate_matches_sympy(field_name, system, data):
    names, gens = system
    drop = data.draw(st.lists(st.sampled_from(names), min_size=1,
                              max_size=len(names) - 1, unique=True))
    kept = [v for v in names if v not in drop]
    ours, symbols, theirs = _inputs(names, gens, FIELDS[field_name])
    gb = eliminate(ours, drop, budget=BUDGET)
    assert gb.ring.variables == tuple(kept)

    # sympy's lex basis with the dropped variables first; its members free
    # of them generate the elimination ideal
    by_name = dict(zip(names, symbols))
    lex_vars = [by_name[v] for v in drop] + [by_name[v] for v in kept]
    lex = _sympy_groebner(theirs, lex_vars, field_name, "lex")
    dropped = {by_name[v] for v in drop}
    kept_symbols = [by_name[v] for v in kept]
    assert _ours(gb, field_name) == _sympy_free_of(lex.exprs, dropped,
                                                   kept_symbols, field_name)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@CHECKS
@given(system=systems(), data=st.data())
def test_saturate_matches_sympy(field_name, system, data):
    names, gens = system
    g_terms = data.draw(_term_map(len(names)))
    ours, symbols, theirs = _inputs(names, gens, FIELDS[field_name])
    g = _poly(ours[0].ring, g_terms)
    g_expr = _expr(g_terms, symbols, FIELDS[field_name])
    # a factor g in the first generator gives the saturation work to do
    ours[0] = ours[0] * g
    theirs[0] = theirs[0] * g_expr
    gb = saturate(ours, [g], budget=BUDGET)
    assert gb.ring == ours[0].ring

    # the lex basis of I + <1 - t*g> with t first; its members free of t
    # generate the saturation
    t = sympy.Symbol("t")
    lex = _sympy_groebner(theirs + [1 - t * g_expr], [t, *symbols],
                          field_name, "lex")
    assert _ours(gb, field_name) == _sympy_free_of(lex.exprs, {t},
                                                   list(symbols), field_name)


@CHECKS
@given(system=systems(), data=st.data())
def test_normal_form_matches_sympy_reduced(system, data):
    names, gens = system
    ours, symbols, theirs = _inputs(names, gens, QQ)
    ring = ours[0].ring
    f_terms = data.draw(_term_map(len(names)))
    f = _poly(ring, f_terms)
    member = ring.zero()
    for g in ours:
        member = member + _poly(ring, data.draw(_term_map(len(names)))) * g
    gb = groebner_basis(ours, budget=BUDGET)
    reference = _sympy_groebner(theirs, symbols, "QQ", "grevlex")
    _, rem = sympy.reduced(_expr(f_terms, symbols), reference.exprs,
                           *symbols, order="grevlex", domain="QQ")
    want = {} if rem == 0 else _sympy_terms(sympy.Poly(rem, *symbols))

    nf = normal_form(f, gb, budget=BUDGET)
    assert nf.terms == want
    assert normal_form(f + member, gb, budget=BUDGET) == nf
    assert gb.contains(member, budget=BUDGET)
    assert gb.contains(f, budget=BUDGET) == (not want)


# ---------------------------------------------------------------------------
# the line route: one kept variable over a zero-dimensional ideal

LINE_FIELDS = {"QQ": QQ, "GF32003": PrimeField(32003),
               "GF65537": PrimeField(65537)}
MERSENNE = PrimeField(2**31 - 1)  # int64 products of residues overflow
LINE_CHECKS = settings(max_examples=25, deadline=None, derandomize=True,
                       database=None)
COEFFICIENTS = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]),
                         st.integers(1, 3))


@st.composite
def zero_dimensional(draw):
    """(variable names, generator term maps): 3 or 4 variables, generator i
    the power x_i^d_i plus terms of lower total degree, whose grevlex
    leading terms leave a quotient of dimension at most prod d_i <= 12, and
    at most one further generator of degree <= 3, which may cut points
    away or give the unit ideal."""
    nvars = draw(st.integers(3, 4))
    degrees = draw(st.lists(st.integers(1, 3), min_size=nvars,
                            max_size=nvars).filter(lambda ds: prod(ds) <= 12))
    gens = []
    for i, d in enumerate(degrees):
        lower = [e for e in product(range(d), repeat=nvars) if sum(e) < d]
        terms = draw(st.dictionaries(st.sampled_from(lower), COEFFICIENTS,
                                     max_size=4))
        terms[tuple(d if j == i else 0 for j in range(nvars))] = Fraction(1)
        gens.append(terms)
    gens += draw(st.lists(_term_map(nvars), max_size=1))
    return ("w", "x", "y", "z")[4 - nvars:], gens


def _monic_terms(terms, p):
    """A univariate term map {(k,): c} made monic, mod p when p."""
    lead = terms[max(terms)]
    if p:
        inv = pow(int(lead) % p, -1, p)
        return {e: int(c) * inv % p for e, c in terms.items() if int(c) % p}
    return {e: Fraction(c) / lead for e, c in terms.items()}


def _sympy_eliminant(polys, symbols, p):
    """The last member of sympy's lex basis for the symbols in the given
    order, which for a zero-dimensional ideal generates its intersection
    with k[symbols[-1]]; made monic."""
    if p:
        basis = sympy.groebner(polys, *symbols, order="lex", modulus=p)
    else:
        basis = sympy.groebner(polys, *symbols, order="lex", domain="QQ")
    last = sympy.Poly(basis.exprs[-1], symbols[-1])
    return _monic_terms(
        {e: Fraction(int(c.p), int(c.q)) for e, c in last.terms()}, p)


def _check_eliminant(ours, symbols, theirs, kept, g=None, g_expr=None):
    """The generator eliminate (or saturate_eliminate by g) returns for
    the kept variable equals sympy's lex eliminant."""
    names = ours[0].ring.variables
    p = getattr(ours[0].ring.field, "p", 0)
    drop = [v for v in names if v != kept]
    by_name = dict(zip(names, symbols))
    order = [by_name[v] for v in drop] + [by_name[kept]]
    if g is None:
        gb = eliminate(ours, drop, budget=BUDGET)
    else:
        gb = saturate_eliminate(ours, g, drop, budget=BUDGET)
        t = sympy.Symbol("t")
        theirs, order = theirs + [1 - t * g_expr], [t] + order
    assert gb.ring.variables == (kept,)
    [generator] = gb.polys
    assert _monic_terms(generator.terms, p) == generator.terms
    assert generator.terms == _sympy_eliminant(theirs, order, p)
    return generator


@pytest.mark.parametrize("field_name", sorted(LINE_FIELDS))
@LINE_CHECKS
@given(system=zero_dimensional(), data=st.data())
def test_line_route_eliminant_matches_sympy_lex(field_name, system, data):
    names, gens = system
    field = LINE_FIELDS[field_name]
    ours, symbols, theirs = _inputs(names, gens, field)
    assert is_zero_dimensional(groebner_basis(ours, budget=BUDGET))
    kept = data.draw(st.sampled_from(names))
    _check_eliminant(ours, symbols, theirs, kept)
    g_terms = data.draw(_term_map(len(names)))
    _check_eliminant(ours, symbols, theirs, kept,
                     _poly(ours[0].ring, g_terms),
                     _expr(g_terms, symbols, field))


def test_line_route_kept_variable_that_does_not_separate_points():
    # four points (+-1, +-1, +-1) with x = z: z takes two values, so its
    # eliminant has degree 2 below the quotient's dimension 4
    for field in (QQ, LINE_FIELDS["GF32003"], MERSENNE):
        gens = [{(1, 0, 0): Fraction(1), (0, 0, 1): Fraction(-1)},
                {(0, 2, 0): Fraction(1), (0, 0, 0): Fraction(-1)},
                {(0, 0, 2): Fraction(1), (0, 0, 0): Fraction(-1)}]
        ours, symbols, theirs = _inputs(("x", "y", "z"), gens, field)
        assert quotient_degree(groebner_basis(ours)) == 4
        for kept in ("y", "z"):
            generator = _check_eliminant(ours, symbols, theirs, kept)
            assert generator.total_degree() == 2


def test_line_route_border_normal_form_takes_several_steps(monkeypatch):
    # leading terms x^2, y^2, z^3 leave twelve monomials; for s = z and
    # b = x*z^2 the border monomial x*z^3 is no leading term: z^3 ->
    # -x - y - 2 leaves -x^2 - x*y - 2*x, and x^2 needs a second step.
    # Without the reduction mod p after each matrix product the twelfth
    # Krylov power would pass 2^63 even at p = 32003
    spent = []
    real = groebner._minimal_polynomial

    def traced(eng, name, normal):
        reduce_full = eng.reduce_full

        def counted(fdict, bound=None):
            before = eng.steps
            out = reduce_full(fdict, bound)
            spent.append(eng.steps - before)
            return out
        eng.reduce_full = counted
        return real(eng, name, normal)

    monkeypatch.setattr(groebner, "_minimal_polynomial", traced)
    gens = [{(2, 0, 0): Fraction(1), (0, 1, 0): Fraction(1),
             (0, 0, 0): Fraction(1)},
            {(0, 2, 0): Fraction(1), (0, 0, 1): Fraction(1)},
            {(0, 0, 3): Fraction(1), (1, 0, 0): Fraction(1),
             (0, 1, 0): Fraction(1), (0, 0, 0): Fraction(2)}]
    for field in (*LINE_FIELDS.values(), MERSENNE):
        spent.clear()
        ours, symbols, theirs = _inputs(("x", "y", "z"), gens, field)
        assert quotient_degree(groebner_basis(ours)) == 12
        generator = _check_eliminant(ours, symbols, theirs, "z")
        assert generator.total_degree() == 12
        assert max(spent) >= 2


def test_line_route_unit_ideal():
    gens = [{(1, 0, 0): Fraction(1)},
            {(1, 0, 0): Fraction(1), (0, 0, 0): Fraction(-1)},
            {(0, 1, 0): Fraction(1)}, {(0, 0, 1): Fraction(1)}]
    for field in (QQ, LINE_FIELDS["GF32003"], MERSENNE):
        ours, symbols, theirs = _inputs(("x", "y", "z"), gens, field)
        generator = _check_eliminant(ours, symbols, theirs, "z")
        assert generator == generator.ring.one()


@LINE_CHECKS
@given(system=zero_dimensional(), data=st.data())
def test_line_route_past_int64_matches_sympy_lex(system, data):
    # D * (p - 1)^2 >= 2^63 for every D >= 2, so the echelon runs on
    # Python integers
    names, gens = system
    ours, symbols, theirs = _inputs(names, gens, MERSENNE)
    hypothesis.assume(quotient_degree(groebner_basis(ours)) >= 4)
    _check_eliminant(ours, symbols, theirs, data.draw(st.sampled_from(names)))


# ---------------------------------------------------------------------------
# the univariate layer

X = sympy.Symbol("x")
RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


@st.composite
def repeated_factors(draw):
    """(dense coefficients, the rational roots of the linear factors): a
    nonzero rational times monic linear and quadratic factors with rational
    coefficients, each to a power 1-3, of degree at most 12."""
    f = [draw(RATIONALS.filter(bool))]
    roots = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            root = draw(RATIONALS)
            factor = [-root, Fraction(1)]
            roots.append(root)
        else:
            factor = [draw(RATIONALS), draw(RATIONALS), Fraction(1)]
        for _ in range(draw(st.integers(1, 3))):
            if len(f) + len(factor) - 2 <= 12:
                f = _mul(f, factor)
    return f, roots


def _sympy_poly(coeffs):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)], X, domain="QQ")


def _monic(coeffs):
    return tuple(Fraction(c) / coeffs[-1] for c in coeffs)


def _sympy_monic(poly):
    return tuple(reversed([Fraction(int(c.p), int(c.q))
                           for c in poly.monic().all_coeffs()]))


def _distinct_in(sqf, a, b):
    """Distinct roots of a squarefree sympy polynomial in (a, b]."""
    if a >= b:
        return 0
    return sqf.count_roots(a, b) - (sqf.eval(a) == 0)


@CHECKS
@given(case=repeated_factors())
def test_squarefree_part_matches_sympy(case):
    f, _ = case
    assert _monic(squarefree_part(f)) == _sympy_monic(_sympy_poly(f).sqf_part())


@CHECKS
@given(case=repeated_factors())
def test_squarefree_decomposition_matches_sympy(case):
    f, _ = case
    ours = {(_monic(g), k) for g, k in squarefree_decomposition(f)}
    _, theirs = _sympy_poly(f).sqf_list()
    assert ours == {(_sympy_monic(g), k) for g, k in theirs}


@CHECKS
@given(case=repeated_factors())
def test_real_roots_match_sympy(case):
    f, _ = case
    sqf = _sympy_poly(f).sqf_part()
    total = sqf.count_roots()
    assert count_real_roots(f) == total
    brackets = isolate_real_roots(f, Fraction(1, 2**10))
    assert len(brackets) == total
    for lo, hi in brackets:
        if lo == hi:
            assert sqf.eval(lo) == 0
        else:
            assert _distinct_in(sqf, lo, hi) == 1


@CHECKS
@given(case=repeated_factors(), data=st.data())
def test_count_roots_at_multiple_roots_matches_sympy(case, data):
    f, roots = case
    sqf = _sympy_poly(f).sqf_part()
    chain = sturm_chain(f)
    ends = st.one_of(st.sampled_from(roots), RATIONALS) if roots else RATIONALS
    for _ in range(4):
        a, b = data.draw(ends), data.draw(ends)
        assert count_roots(chain, a, b) == _distinct_in(sqf, a, b)


# ---------------------------------------------------------------------------
# the integer division and gcd, over Z and over F_p

INTEGER_COEFFS = st.integers(-9, 9)


def _int_poly(min_degree, max_degree):
    """Integer coefficients, low degree first, with a nonzero leading one."""
    return st.integers(min_degree, max_degree).flatmap(
        lambda d: st.tuples(st.lists(INTEGER_COEFFS, min_size=d, max_size=d),
                            INTEGER_COEFFS.filter(bool))
    ).map(lambda parts: parts[0] + [parts[1]])


def _zz_poly(coeffs, modulus=None):
    options = {"modulus": modulus} if modulus else {"domain": "ZZ"}
    return sympy.Poly(list(reversed(coeffs)), X, **options)


def _zz_coeffs(poly, modulus=None):
    coeffs = [int(c) for c in reversed(poly.all_coeffs())]
    return [c % modulus for c in coeffs] if modulus else coeffs


@pytest.mark.parametrize("p", [10007, 65537])
@CHECKS
@given(f=_int_poly(2, 12), scale_lead=st.booleans())
def test_mod_p_irreducible_matches_sympy(p, f, scale_lead):
    if scale_lead:
        f = f[:-1] + [f[-1] * p]     # p divides the leading coefficient
    ours = mod_p_irreducible(f, p)
    if f[-1] % p == 0:
        assert ours is None
    else:
        assert ours is _zz_poly(f, p).is_irreducible


@pytest.mark.parametrize("p", [10007, 65537])
@CHECKS
@given(g=_int_poly(1, 4), u=_int_poly(1, 5), v=_int_poly(0, 5))
def test_mod_p_irreducible_rejects_products(p, g, u, v):
    f = _mul(_mul(g, u), v)
    assert mod_p_irreducible(f, p) is False


@CHECKS
@given(a=_int_poly(0, 10), b=_int_poly(0, 6), c=_int_poly(0, 5),
       exact=st.booleans())
def test_dense_divmod_over_z_is_a_pseudo_division(a, b, c, exact):
    if exact:
        a = _mul(b, c)
    q, r = dense_divmod(a, b)
    assert len(r) < len(b)
    # m*a = q*b + r for one integer m > 0
    total = [x + y for x, y in zip_longest(_mul(q, b) if q else [], r,
                                           fillvalue=0)]
    m = Fraction(total[-1], a[-1])
    assert m > 0 and m.denominator == 1
    assert total == [m * x for x in a]
    # so r is a positive multiple of the rational remainder
    want = _zz_poly(a).to_field().rem(_zz_poly(b).to_field())
    theirs = [] if want.is_zero else [
        Fraction(int(x.p), int(x.q)) for x in reversed(want.all_coeffs())]
    assert r == [m * x for x in theirs]
    if exact and b == _zz_coeffs(_zz_poly(b).primitive()[1]):
        assert (q, m) == (c, 1)


@pytest.mark.parametrize("p", [0, 10007])
@CHECKS
@given(g=_int_poly(0, 4), u=_int_poly(0, 5), v=_int_poly(0, 5))
def test_dense_gcd_matches_sympy(p, g, u, v):
    a, b = _mul(g, u), _mul(g, v)
    ours = dense_gcd(a, b, p)
    if p:
        theirs = _zz_coeffs(_zz_poly(a, p).gcd(_zz_poly(b, p)).monic(), p)
    else:
        primitive = _zz_poly(a).gcd(_zz_poly(b)).primitive()[1]
        theirs = _zz_coeffs(primitive if primitive.LC() > 0 else -primitive)
    assert ours == theirs
