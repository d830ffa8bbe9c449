"""Groebner bases and ideal operations over exact fields.

The engine packs exponent vectors into a single integer, 24 bits per
variable, so monomial multiplication is integer addition and divisibility
is one masked subtraction (each variable keeps a guard bit that a borrow
would clear); the same guard bits select the larger exponent of each
variable, so an lcm costs a constant number of integer operations.  Every
exponent must stay below 2^23; a larger one raises OverflowError.  This
module holds no order logic: monomials compare by the ring order's integer
key from ``exactmath.orders``, the key ``Polynomial`` sorts its terms by,
cached once per packed monomial.

One reduction kernel serves both fields.  It runs a max-heap over the
pending monomials of the working polynomial.  A pending coefficient is
reduced mod p only when its term is popped; a term that cancels stays
pending as a zero and is skipped then.  The reducer of a monomial is the
first live basis member whose leading term divides it, and each engine
remembers it: members are only ever appended or retired, so a remembered
live reducer still holds and a remembered miss resumes its scan where it
stopped.  The final interreduction puts the kept members into one engine in
ascending order and reduces each tail there, writing it back; a tail term
lies below its own leading term, so only the other members divide it.

Over F_p basis members are monic, so the kernel never scales.  Over Q the
engine reduces fraction-free: basis members are primitive integer
polynomials with a positive leading coefficient, and when a reducer's
leading coefficient a does not divide the coefficient c it cancels, the
working polynomial is first scaled by a / gcd(a, c).  That polynomial is
always a nonzero multiple of the one reduction over Q would hold, so the
reducer choices and the step counts are those of rational arithmetic.  The
kernel tracks the product of the scalings, which makes exact normal forms
available without a single fraction in the loop.

Buchberger's algorithm uses the normal selection strategy (smallest lcm
first, ties broken by generator indices), the coprime-leading-term
criterion and the chain criterion over already-treated pairs, so runs are
deterministic.  Every reducer application counts against a step budget;
exceeding it raises BudgetExhaustedError rather than looping forever.

Reduced bases are monic, pairwise irreducible and sorted with the largest
leading term first, which makes them canonical for the ring's order.

Elimination, saturation and intersection share one route: the grevlex
basis of the generators comes first; a single kept variable over a
zero-dimensional basis then takes the minimal polynomial of
multiplication by that variable, and anything else a block-order run
started from the grevlex basis.
"""
from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .exactmath.fields import PrimeField, QQ, field_from_name
from .exactmath.orders import _FIELD_MASK, _W, GREVLEX, BlockElim, _check_fields
from .exactmath.parse import parse_polynomial
from .exactmath.poly import Polynomial, PolyRing

DEFAULT_BUDGET = 1_000_000


class BudgetExhaustedError(RuntimeError):
    """A Groebner computation exceeded its reduction-step budget."""

    def __init__(self, stage: str, budget: int):
        super().__init__(
            f"computation budget of {budget} reduction steps exhausted during {stage}"
        )
        self.stage = stage
        self.budget = budget


class NotZeroDimensionalError(ValueError):
    pass


@dataclass(frozen=True)
class IdealSpec:
    """A polynomial ideal given by explicit generators.

    ``codim`` is the codimension of the variety, the dimension of its
    normal spaces; it defaults to the number of generators and is the only
    place a codimension is declared.  An empty generator tuple denotes the
    zero ideal.
    """

    ring: PolyRing
    generators: tuple[Polynomial, ...]
    codim: int | None = None

    def __post_init__(self):
        for g in self.generators:
            if g.ring != self.ring:
                raise ValueError("generator outside the ideal's ring")

    @classmethod
    def from_strings(cls, variables: Sequence[str], gens: Sequence[str], *,
                     field=QQ, codim: int | None = None) -> "IdealSpec":
        if isinstance(field, str):
            field = field_from_name(field)
        ring = PolyRing(variables, field=field, order=GREVLEX)
        polys = tuple(parse_polynomial(g, ring) for g in gens)
        return cls(ring, polys, codim)

    @classmethod
    def from_json(cls, text: str) -> "IdealSpec":
        """Read {"vars": [...], "gens": [...], "field": "Q", "codim": c};
        a document of any other shape raises ValueError naming the bad key."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("the document must be a JSON object, not "
                             f"{type(data).__name__}")
        for key in ("vars", "gens"):
            value = data.get(key)
            if not (isinstance(value, list)
                    and all(isinstance(v, str) for v in value)):
                raise ValueError(f"{key!r} must be a list of strings")
        field = data.get("field", "Q")
        if not isinstance(field, str):
            raise ValueError(f"'field' must be a string, not {field!r}")
        codim = data.get("codim")
        if codim is not None and (isinstance(codim, bool)
                                  or not isinstance(codim, int)):
            raise ValueError(f"'codim' must be an integer, not {codim!r}")
        return cls.from_strings(data["vars"], data["gens"], field=field,
                                codim=codim)

    def to_json(self) -> str:
        data = {
            "vars": list(self.ring.variables),
            "field": self.ring.field.name,
            "gens": [str(g) for g in self.generators],
        }
        if self.codim is not None:
            data["codim"] = self.codim
        return json.dumps(data, sort_keys=True, indent=2)


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: monic, interreduced, largest leading term first."""

    ring: PolyRing
    polys: tuple[Polynomial, ...]

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def is_zero_ideal(self) -> bool:
        return not self.polys

    def is_unit_ideal(self) -> bool:
        return len(self.polys) == 1 and self.polys[0] == self.ring.one()

    def leading_monomials(self) -> tuple[tuple[int, ...], ...]:
        return tuple(p.leading_monomial() for p in self.polys)

    def contains(self, f: Polynomial, *, budget: int | None = None) -> bool:
        return normal_form(f, self, budget=budget).is_zero()


class _Engine:
    def __init__(self, ring: PolyRing, budget: int | None, stage: str,
                 steps: int = 0):
        self.ring = ring
        self.n = ring.nvars
        self.field = ring.field
        self.modp = isinstance(ring.field, PrimeField)
        self.p = ring.field.p if self.modp else 0
        self.budget = DEFAULT_BUDGET if budget is None else budget
        self.stage = stage
        self.steps = steps  # steps already spent against the same budget
        self.guard = sum(1 << (_W * i + _W - 1) for i in range(self.n))
        self._keyd: dict = {}  # descending sort keys, shared by sub-engines
        # monomial -> first live reducer index, or ~k after a miss over the
        # first k members (see find_reducer)
        self._reducers: dict = {}
        # basis storage: parallel lists over insertion index; blc holds the
        # leading coefficients (1 over F_p, where members are monic)
        self.blt: list[int] = []
        self.blc: list[int] = []
        self.btail: list[list] = []
        self.alive: list[bool] = []

    # -- encoding ----------------------------------------------------------
    def encode(self, mon) -> int:
        _check_fields(mon)
        e = 0
        for i, v in enumerate(mon):
            e |= v << (_W * i)
        return e

    def decode(self, enc: int):
        return tuple((enc >> (_W * i)) & _FIELD_MASK for i in range(self.n))

    def keyd(self, enc: int) -> int:
        k = self._keyd.get(enc)
        if k is None:
            k = self.ring.order.key_desc(self.decode(enc))
            self._keyd[enc] = k
        return k

    def keya(self, enc: int) -> int:
        return -self.keyd(enc)

    def divides(self, a: int, b: int) -> bool:
        return ((b | self.guard) - a) & self.guard == self.guard

    def lcm(self, a: int, b: int) -> int:
        """Per-variable maximum: the guard bit of a variable survives
        (a | guard) - b exactly where a's exponent is at least b's, and
        spreads into a mask that selects a's field there and b's elsewhere."""
        guard = self.guard
        m = ((((a | guard) - b) & guard) >> (_W - 1)) * _FIELD_MASK
        return (a & m) | (b & ~m)

    def poly_to_dict(self, f: Polynomial) -> tuple[dict, int]:
        """Encoded term dict of den * f, and den: over Q den is the lcm of
        the coefficient denominators, so the dict holds integers; over F_p
        it is 1."""
        if self.modp:
            return {self.encode(mon): c for mon, c in f.terms.items()}, 1
        den = lcm(*(c.denominator for c in f.terms.values()))
        return {self.encode(mon): c.numerator * (den // c.denominator)
                for mon, c in f.terms.items()}, den

    def dict_to_poly(self, d: dict, scale=1) -> Polynomial:
        """The polynomial d / scale; scale is always 1 over F_p."""
        if self.modp:
            return self.ring.from_terms({self.decode(e): c for e, c in d.items()})
        return self.ring.from_terms(
            {self.decode(e): Fraction(c) / scale for e, c in d.items()})

    # -- basis management ---------------------------------------------------
    def add_basis_poly(self, d: dict):
        """Insert a polynomial given as an encoded term dict: monic over
        F_p, with integer coefficients over Q."""
        items = [(e, d[e]) for e in sorted(d, key=self.keyd)]
        lt, lc = items[0]
        self.blt.append(lt)
        self.blc.append(lc)
        self.btail.append(items[1:])
        self.alive.append(True)

    def tick(self):
        self.steps += 1
        if self.steps > self.budget:
            raise BudgetExhaustedError(self.stage, self.budget)

    # -- reduction kernel ---------------------------------------------------
    def find_reducer(self, e: int) -> int:
        """Index of the first live member whose leading term divides e, or
        -1.  Members are only ever appended or retired, so a remembered live
        answer still holds, a retired one resumes the scan just after it,
        and a miss over the first k members resumes at k."""
        r = self._reducers.get(e, -1)
        alive = self.alive
        if r >= 0:
            if alive[r]:
                return r
            start = r + 1
        else:
            start = ~r
        blt = self.blt
        guard = self.guard
        eg = e | guard
        nbasis = len(blt)
        for i in range(start, nbasis):
            if alive[i] and (eg - blt[i]) & guard == guard:
                self._reducers[e] = i
                return i
        self._reducers[e] = ~nbasis
        return -1

    def reduce_full(self, fdict: dict) -> tuple[dict, int | Fraction]:
        """Full reduction of an encoded term dict: (R, scale), where
        R / scale is the remainder of the dict.  Over F_p scale is 1; over
        Q the dict holds integers, R is primitive and scale a Fraction."""
        p = self.p
        coeff = dict(fdict)
        keyd = self.keyd
        heap = [(keyd(e), e) for e in coeff]
        heapq.heapify(heap)
        out: dict = {}
        scale = 1  # product of the factors the working polynomial took
        blt = self.blt
        blc = self.blc
        btail = self.btail
        reducers = self._reducers
        alive = self.alive
        find = self.find_reducer
        push = heapq.heappush
        pop = heapq.heappop
        while heap:
            e = pop(heap)[1]
            # a pending coefficient is reduced mod p only here; a term that
            # cancelled stays pending as a zero
            c = coeff.pop(e)
            if p:
                c %= p
            if not c:
                continue
            # a remembered live reducer, else the scan of find_reducer
            idx = reducers.get(e, -1)
            if idx < 0 or not alive[idx]:
                idx = find(e)
            if idx < 0:
                out[e] = c
                continue
            self.tick()
            a = blc[idx]
            if c % a:
                # scale pending and emitted terms so that a divides c
                h = gcd(a, c)
                m = a // h
                scale *= m
                coeff = {k: v * m for k, v in coeff.items()}
                out = {k: v * m for k, v in out.items()}
                q = c // h
            else:
                q = c // a
            shift = e - blt[idx]
            for me, gc in btail[idx]:
                te = me + shift
                old = coeff.get(te)
                if old is None:
                    coeff[te] = -q * gc
                    push(heap, (keyd(te), te))
                else:
                    coeff[te] = old - q * gc
        if p:
            return out, 1
        if not out:
            return out, Fraction(1)
        content = gcd(*out.values())
        if content != 1:
            out = {e: c // content for e, c in out.items()}
        return out, Fraction(scale, content)

    def normalize(self, d: dict) -> dict:
        """Monic over F_p; over Q primitive with a positive leading
        coefficient."""
        lc = d[min(d, key=self.keyd)]
        if self.modp:
            if lc == 1:
                return d
            inv = self.field.inv(lc)
            p = self.p
            return {e: inv * c % p for e, c in d.items()}
        content = gcd(*d.values())
        if lc < 0:
            content = -content
        if content == 1:
            return d
        return {e: c // content for e, c in d.items()}

    def spoly(self, i: int, j: int, l: int) -> dict:
        """S-polynomial of two basis members, as an encoded dict: over Q the
        integer combination (a_j/h) x^(l - lt_i) g_i - (a_i/h) x^(l - lt_j)
        g_j of members with leading coefficients a_i, a_j, h = gcd(a_i, a_j)."""
        p = self.p
        ai = self.blc[i]
        aj = self.blc[j]
        h = gcd(ai, aj)
        fi = aj // h
        fj = ai // h
        si = l - self.blt[i]
        sj = l - self.blt[j]
        d = {me + si: fi * c for me, c in self.btail[i]}
        for me, c in self.btail[j]:
            te = me + sj
            nv = d.get(te, 0) - fj * c
            if p:
                nv %= p
            if nv:
                d[te] = nv
            else:
                del d[te]
        return d


def _resolve_ring(gens: Sequence[Polynomial], ring: PolyRing | None) -> PolyRing:
    if ring is not None:
        return ring
    for g in gens:
        return g.ring
    raise ValueError("cannot infer a ring from an empty generator list")


def groebner_basis(gens: Iterable[Polynomial], ring: PolyRing | None = None, *,
                   budget: int | None = None, stage: str = "groebner") -> GroebnerBasis:
    """Reduced Groebner basis for the ring's own monomial order."""
    gens = [g for g in gens]
    ring = _resolve_ring(gens, ring)
    return _buchberger(_Engine(ring, budget, stage), gens)


def _buchberger(eng: _Engine, gens: list[Polynomial]) -> GroebnerBasis:
    """Reduced basis of the generators for the order of the engine's ring."""
    seen = set()
    start = []
    for g in gens:
        if g.is_zero():
            continue
        d = eng.normalize(eng.poly_to_dict(g)[0])
        key = frozenset(d.items())
        if key not in seen:
            seen.add(key)
            start.append(d)
    if not start:
        return GroebnerBasis(eng.ring, ())

    pairs: list = []
    for d in start:
        _gm_update(eng, pairs, d)
    while pairs:
        _, l, i, j = heapq.heappop(pairs)
        nf, _ = eng.reduce_full(eng.spoly(i, j, l))
        if nf:
            _gm_update(eng, pairs, eng.normalize(nf))
    return _finalize(eng)


def _gm_update(eng: _Engine, pairs: list, d: dict):
    """Gebauer-Moeller pair update: insert a new basis element, queue only
    the S-pairs the standard criteria cannot discard."""
    m = len(eng.blt)
    eng.add_basis_poly(d)
    blt = eng.blt
    alive = eng.alive
    guard = eng.guard
    lcm = eng.lcm
    ltm = blt[m]

    # divisibility inlined: a divides b when (b | guard) - a borrows no
    # guard bit
    cand = [(lcm(blt[i], ltm), i) for i in range(m) if alive[i]]
    # drop a candidate when another new pair's lcm properly divides its lcm
    kept = []
    for l1, i1 in cand:
        g1 = l1 | guard
        if not any(l2 != l1 and (g1 - l2) & guard == guard for l2, _ in cand):
            kept.append((l1, i1))
    # one pair per lcm value, or none when that lcm admits a coprime pair
    by_lcm: dict[int, list[int]] = {}
    for l, i in kept:
        by_lcm.setdefault(l, []).append(i)
    new_pairs = []
    for l, idxs in by_lcm.items():
        if any(l == blt[i] + ltm for i in idxs):
            continue
        new_pairs.append((l, min(idxs)))

    # chain criterion against queued pairs from earlier rounds
    if pairs:
        survivors = [
            entry for entry in pairs
            if not (((entry[1] | guard) - ltm) & guard == guard
                    and lcm(blt[entry[2]], ltm) != entry[1]
                    and lcm(blt[entry[3]], ltm) != entry[1])
        ]
        if len(survivors) != len(pairs):
            pairs[:] = survivors
            heapq.heapify(pairs)

    # retire members whose leading term the newcomer strictly divides
    for i in range(m):
        if alive[i] and ((blt[i] | guard) - ltm) & guard == guard:
            alive[i] = False

    for l, i in new_pairs:
        heapq.heappush(pairs, (eng.keya(l), l, i, m))


def _finalize(eng: _Engine) -> GroebnerBasis:
    order = [(eng.keyd(lt), idx) for idx, lt in enumerate(eng.blt) if eng.alive[idx]]
    order.sort(reverse=True)  # ascending leading terms
    kept: list[int] = []
    for _, idx in order:
        lt = eng.blt[idx]
        if any(eng.divides(eng.blt[k], lt) for k in kept):
            continue
        kept.append(idx)

    # interreduce in one engine that holds the kept members in ascending
    # order, reducing each tail and writing it back.  A tail term lies below
    # its own leading term, so only the other members can divide it: the
    # reducers are those of reducing each member against all the others.
    red = _Engine(eng.ring, eng.budget, eng.stage, eng.steps)
    red._keyd = eng._keyd
    for idx in kept:
        red.add_basis_poly({eng.blt[idx]: eng.blc[idx],
                            **dict(eng.btail[idx])})
    members = []
    for k, lt in enumerate(red.blt):
        rem, scale = red.reduce_full(dict(red.btail[k]))
        # the member is lc * lt + rem / scale
        d = red.normalize({lt: red.blc[k] * scale.numerator,
                           **{e: c * scale.denominator for e, c in rem.items()}})
        red.blc[k] = d[lt]
        red.btail[k] = list(d.items())[1:]
        members.append(d)
    eng.steps = red.steps
    return GroebnerBasis(eng.ring, tuple(
        red.dict_to_poly(d, d[lt])
        for lt, d in zip(reversed(red.blt), reversed(members))))


def normal_form(f: Polynomial, gb: GroebnerBasis, *, budget: int | None = None) -> Polynomial:
    """Unique remainder of f modulo a Groebner basis."""
    if f.ring != gb.ring:
        raise ValueError("polynomial and basis rings differ")
    if f.is_zero() or not gb.polys:
        return f
    eng = _Engine(gb.ring, budget, "normal form")
    for g in gb.polys:
        eng.add_basis_poly(eng.poly_to_dict(g)[0])
    d, den = eng.poly_to_dict(f)
    nf, scale = eng.reduce_full(d)
    return eng.dict_to_poly(nf, scale * den)


def interreduce(polys: Iterable[Polynomial], ring: PolyRing | None = None, *,
                budget: int | None = None) -> tuple[Polynomial, ...]:
    """Minimalize and tail-reduce a set whose leading terms already generate
    the full leading-term ideal; for such input this yields the reduced basis."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return ()
    ring = _resolve_ring(polys, ring)
    eng = _Engine(ring, budget, "interreduction")
    for p in polys:
        eng.add_basis_poly(eng.normalize(eng.poly_to_dict(p)[0]))
    return _finalize(eng).polys


def eliminate(gens: Iterable[Polynomial], drop: Sequence[str], ring: PolyRing | None = None, *,
              budget: int | None = None, stage: str = "elimination") -> GroebnerBasis:
    """Eliminate the named variables; returns a basis in the smaller ring.

    The result ring keeps the remaining variables in their original order
    and uses graded reverse lexicographic comparison.
    """
    gens = list(gens)
    return _eliminate(gens, _resolve_ring(gens, ring), drop, budget, stage)


def _eliminate(gens: list[Polynomial], ring: PolyRing, drop: Sequence[str],
               budget: int | None, stage: str) -> GroebnerBasis:
    """Basis of <gens> intersected with the ring of the kept variables.

    The grevlex basis G of the generators, with the dropped variables
    first, always comes first.  When exactly one variable s is kept and G
    is zero-dimensional, the answer is the minimal polynomial of
    multiplication by s on the quotient, read off the first linear
    dependence among the normal forms of 1, s, s^2, ... (the univariate
    step of FGLM).  Otherwise a block-order Buchberger run starts from G's
    members, the cheap end of a Groebner walk: G generates the same ideal
    and reduced bases are unique, so the result is that of block
    elimination from the generators.  Both steps charge one step budget.
    """
    head, tail = _split_variables(ring, drop)
    names = head + tail
    grevlex = PolyRing(names, field=ring.field, order=GREVLEX)
    var_map = [grevlex.index_of(v) for v in ring.variables]
    eng = _Engine(grevlex, budget, stage)
    gb = _buchberger(eng, [f.map_ring(grevlex, var_map) for f in gens])
    if len(tail) == 1 and is_zero_dimensional(gb):
        return _minimal_polynomial(eng, gb, tail[0])
    work = PolyRing(names, field=ring.field, order=BlockElim(len(head)))
    return _block_eliminate(_Engine(work, budget, stage, eng.steps),
                            [Polynomial(work, p.terms) for p in gb.polys])


def _split_variables(ring: PolyRing, drop: Sequence[str]) -> tuple[list, list]:
    """The dropped and the kept variables, each in the ring's order."""
    drop_set = set(drop)
    unknown = drop_set - set(ring.variables)
    if unknown:
        raise ValueError(f"cannot eliminate unknown variables {sorted(unknown)}")
    head = [v for v in ring.variables if v in drop_set]
    tail = [v for v in ring.variables if v not in drop_set]
    return head, tail


def _block_eliminate(eng: _Engine, gens: list[Polynomial]) -> GroebnerBasis:
    """The members of a block-order basis free of the first block, in a
    grevlex ring on the remaining variables."""
    work = eng.ring
    k = work.order.k
    gb = _buchberger(eng, gens)
    tail = work.variables[k:]
    sub = PolyRing(tail, field=work.field, order=GREVLEX)
    # block order: a head-free leading term forces a head-free polynomial
    sub_map = [-1] * k + list(range(len(tail)))
    out = [p.map_ring(sub, sub_map) for p in gb.polys
           if not any(p.leading_monomial()[:k])]
    out.sort(key=lambda p: sub.key_desc(p.leading_monomial()))
    return GroebnerBasis(sub, tuple(out))


def _fresh_var(ring: PolyRing, base: str = "_t") -> str:
    name = base
    while name in ring.variables:
        name += "t"
    return name


def saturate(gens: Iterable[Polynomial], sat: Iterable[Polynomial],
             ring: PolyRing | None = None, *, budget: int | None = None,
             stage: str = "saturation") -> GroebnerBasis:
    """Saturation (I : J^infinity), J given by generators.

    Computed per generator with saturate_eliminate and intersected across
    generators.
    """
    gens = list(gens)
    sat = [s for s in sat if not s.is_zero()]
    ring = _resolve_ring(gens + sat, ring)
    if not sat:
        return groebner_basis(gens, ring, budget=budget, stage=stage)
    partial: GroebnerBasis | None = None
    for g in sat:
        one = _realign(saturate_eliminate(gens, g, (), ring, budget=budget,
                                          stage=stage), ring, budget, stage)
        if partial is None:
            partial = one
        else:
            partial = intersect(partial.polys, one.polys, ring,
                                budget=budget, stage=stage)
    return partial


def saturate_eliminate(gens: Iterable[Polynomial], g: Polynomial,
                       drop: Sequence[str], ring: PolyRing | None = None, *,
                       budget: int | None = None,
                       stage: str = "saturation") -> GroebnerBasis:
    """Basis of (<gens> : g^infinity) intersected with the ring of the kept
    variables, in a grevlex ring on those variables.

    The saturation adds 1 - t*g for a fresh variable t, which is then
    eliminated together with the dropped variables.
    """
    gens = list(gens)
    ring = _resolve_ring(gens + [g], ring)
    tname = _fresh_var(ring)
    work = PolyRing((tname,) + ring.variables, field=ring.field)
    var_map = list(range(1, work.nvars))
    moved = [f.map_ring(work, var_map) for f in gens]
    moved.append(work.one() - work.variable(tname) * g.map_ring(work, var_map))
    return _eliminate(moved, work, [tname, *drop], budget, stage)


def _minimal_polynomial(eng: _Engine, gb: GroebnerBasis, name: str) -> GroebnerBasis:
    """Monic generator of the ideal of gb intersected with k[name].

    gb must be a zero-dimensional reduced basis of the engine's ring.  The
    normal forms NF(s^i) = NF(s * NF(s^(i-1))) are echeloned as they come;
    the first one that reduces to zero gives the dependence.  The kernel
    reduces s * R(i-1) for the remainder R(i-1) = lam(i-1) * NF(s^(i-1)) it
    returned last, so lam(i) = mu(i) * lam(i-1) with mu(i) the scale of the
    new reduction (all 1 over F_p).  Over F_p the echelon rows are scaled
    to pivot 1.  Over Q it runs fraction-free on the integer remainders:
    a row R with pivot entry P clears the pivot of v as P * v - v[pivot] * R,
    and a new row is divided by the joint content of its vector and its
    combination of remainders.  The dependence sum_i c(i) * R(i) = 0 then gives the coefficients
    c(i) * lam(i), made monic.
    """
    field = eng.field
    nf_eng = _Engine(gb.ring, eng.budget, eng.stage, eng.steps)
    nf_eng._keyd = eng._keyd
    for g in gb.polys:
        nf_eng.add_basis_poly(nf_eng.poly_to_dict(g)[0])
    shift = 1 << (_W * gb.ring.index_of(name))
    p = nf_eng.p

    def axpy(y: dict, a: int, x: dict, b: int):
        # y <- b * y - a * x in place, mod p over F_p (where b is 1)
        if b != 1:
            for e in y:
                y[e] *= b
        for e, c in x.items():
            v = y.get(e, 0) - a * c
            if p:
                v %= p
            if v:
                y[e] = v
            else:
                y.pop(e, None)

    rows: list = []  # (pivot, vector, its combination of remainders)
    lams: list = []  # R(i) = lams[i] * NF(s^i)
    rem, lam = nf_eng.reduce_full({0: 1})
    while True:
        vec = dict(rem)
        combo = {len(lams): 1}
        lams.append(lam)
        for pivot, row, row_combo in rows:
            c = vec.get(pivot)
            if c is not None:
                lead = row[pivot]
                axpy(vec, c, row, lead)
                axpy(combo, c, row_combo, lead)
        if not vec:
            break
        pivot = min(vec, key=nf_eng.keyd)
        if p:
            inv = field.inv(vec[pivot])
            vec = {e: inv * c % p for e, c in vec.items()}
            combo = {m: inv * c % p for m, c in combo.items()}
        else:
            content = gcd(*vec.values(), *combo.values())
            if content != 1:
                vec = {e: v // content for e, v in vec.items()}
                combo = {m: v // content for m, v in combo.items()}
        rows.append((pivot, vec, combo))
        rem, mu = nf_eng.reduce_full({e + shift: c for e, c in rem.items()})
        lam *= mu
    if not p:
        # the newest remainder's coefficient is never cleared
        top = combo[len(lams) - 1] * lams[-1]
        combo = {m: c * lams[m] / top for m, c in combo.items()}
    sub_ring = PolyRing((name,), field=field, order=GREVLEX)
    return GroebnerBasis(sub_ring, (sub_ring.from_terms(
        {(m,): c for m, c in combo.items()}),))


def _realign(gb: GroebnerBasis, ring: PolyRing, budget, stage) -> GroebnerBasis:
    """Move a grevlex basis on the ring's variables into the ring itself."""
    if gb.ring == ring:
        return gb
    back = [ring.index_of(v) for v in gb.ring.variables]
    polys = tuple(p.map_ring(ring, back) for p in gb.polys)
    return GroebnerBasis(ring, polys) if ring.order == GREVLEX else groebner_basis(
        polys, ring, budget=budget, stage=stage)


def intersect(gens_a: Iterable[Polynomial], gens_b: Iterable[Polynomial],
              ring: PolyRing | None = None, *, budget: int | None = None,
              stage: str = "intersection") -> GroebnerBasis:
    """Intersection of two ideals via the one-parameter trick."""
    gens_a = list(gens_a)
    gens_b = list(gens_b)
    ring = _resolve_ring(gens_a + gens_b, ring)
    tname = _fresh_var(ring)
    work = PolyRing((tname,) + ring.variables, field=ring.field)
    var_map = list(range(1, work.nvars))
    t = work.variable(tname)
    one_minus_t = work.one() - t
    moved = [t * f.map_ring(work, var_map) for f in gens_a]
    moved += [one_minus_t * f.map_ring(work, var_map) for f in gens_b]
    gb = eliminate(moved, [tname], work, budget=budget, stage=stage)
    return _realign(gb, ring, budget, stage)


def is_zero_dimensional(gb: GroebnerBasis) -> bool:
    """True when the quotient ring is a finite-dimensional vector space."""
    if gb.is_unit_ideal():
        return True
    if not gb.polys:
        return gb.ring.nvars == 0
    pure = set()
    for lead in gb.leading_monomials():
        support = [i for i, e in enumerate(lead) if e]
        if len(support) == 1:
            pure.add(support[0])
    return len(pure) == gb.ring.nvars


def quotient_degree(gb: GroebnerBasis) -> int:
    """Vector-space dimension of the quotient by a zero-dimensional ideal.

    The unit ideal has degree zero; a basis that is not zero-dimensional
    raises NotZeroDimensionalError.
    """
    if gb.is_unit_ideal():
        return 0
    if not is_zero_dimensional(gb):
        raise NotZeroDimensionalError("ideal is not zero-dimensional")
    n = gb.ring.nvars
    leads = gb.leading_monomials()
    bounds = [None] * n
    for lead in leads:
        support = [i for i, e in enumerate(lead) if e]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or lead[i] < bounds[i]:
                bounds[i] = lead[i]

    count = 0
    mon = [0] * n

    def divisible() -> bool:
        for lead in leads:
            if all(mon[i] >= e for i, e in enumerate(lead)):
                return True
        return False

    def walk(i: int):
        nonlocal count
        if i == n:
            count += 1
            return
        for e in range(bounds[i]):
            mon[i] = e
            if divisible():
                break  # larger exponents stay divisible
            walk(i + 1)
        mon[i] = 0

    walk(0)
    return count
