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
"""
from fractions import Fraction
from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from voronoi_cells.exactmath import QQ, PolyRing, PrimeField  # noqa: E402
from voronoi_cells.groebner import (  # noqa: E402
    eliminate,
    groebner_basis,
    normal_form,
    saturate,
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


def _expr(terms, symbols, field_name="QQ"):
    """A sympy expression; over GF(p) from the coefficients' images mod p,
    since sympy's finite fields take no fractions."""
    if field_name == "GF":
        coeffs = {e: FIELDS["GF"].coerce(c) for e, c in terms.items()}
    else:
        coeffs = {e: sympy.Rational(c.numerator, c.denominator)
                  for e, c in terms.items()}
    return sympy.Poly.from_dict(coeffs, *symbols).as_expr()


def _inputs(names, gens, field_name):
    ring = PolyRing(names, field=FIELDS[field_name])
    ours = [_poly(ring, g) for g in gens]
    symbols = sympy.symbols(names)
    theirs = [_expr(g, symbols, field_name) for g in gens]
    return ours, symbols, theirs


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@CHECKS
@given(system=systems())
def test_groebner_basis_matches_sympy(field_name, system):
    names, gens = system
    ours, symbols, theirs = _inputs(names, gens, field_name)
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
    ours, symbols, theirs = _inputs(names, gens, field_name)
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
    ours, symbols, theirs = _inputs(names, gens, field_name)
    g = _poly(ours[0].ring, g_terms)
    g_expr = _expr(g_terms, symbols, field_name)
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
    ours, symbols, theirs = _inputs(names, gens, "QQ")
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
