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
pending as a zero and is skipped then.  Terms leave the kernel largest
first, and every encoded term dict keeps that order, so its first term is
its leading term.  The reducer of a monomial is the first basis member
whose leading term divides it, and each engine remembers it: members are
only ever appended, so a remembered divisor still holds and a remembered
miss resumes its scan where it stopped.  Under a signature bound (below) a
divisor reduces only when its shifted signature is smaller, and the scan
goes on past the ones that are not.  The final interreduction, run only
where a basis is decoded, puts the kept members into one engine in
ascending order and reduces each tail there, writing it back; a tail term
lies below its own leading term, so only the other members divide it.
That engine then holds the reduced basis.

Over F_p basis members are monic, so the kernel never scales.  Over Q the
engine reduces fraction-free: basis members are primitive integer
polynomials with a positive leading coefficient, and when a reducer's
leading coefficient a does not divide the coefficient c it cancels, the
working polynomial is first scaled by a / gcd(a, c).  That polynomial is
always a nonzero multiple of the one reduction over Q would hold, so the
reducer choices and the step counts are those of rational arithmetic.  The
kernel tracks the product of the scalings, which makes exact normal forms
available without a single fraction in the loop.

Buchberger's algorithm runs on signatures (Faugere's F5; the rewrite
framework surveyed by Eder and Faugere).  Generator i has the signature
(i, 1), compared position over term in the caller's order, and each basis
member carries the signature of the multiple of the generators it stands
for.  Signatures are taken in increasing order, once each.  Three criteria
discard a signature before any reduction: F5 (a leading term of the basis
of the earlier generators divides it), syzygy (the signature of an earlier
zero reduction divides it) and rewrite (of the members whose signature
divides it, only the one with the smallest multiple is reduced).  Order
keys are affine in the exponents, so a signature's key is integer
arithmetic on stored keys.  Runs are deterministic.  Every reducer
application counts against a step budget; exceeding it raises
BudgetExhaustedError rather than looping forever.

Over F_p a signature run is learned once and then replayed (the trace
algorithms of Traverso, ISSAC 1988, and F4's learning runs).  A run from
an empty engine has a key: the prime, the ring's size and order, and the
supports of its normalized, deduplicated generators.  The first run of a
key logs every popped term as cancelled, emitted or reduced by member k,
and where each reduced polynomial came from; from the log it stores a
trace, which numbers the terms of each reduction and gives every shifted
tail its target slots.  A later run of the key whose trace steps fit the
remaining budget replays it on Python integers mod p and checks every
zero test: a term that cancelled must cancel, and an emitted or reducing
term must be nonzero.  Members are monic, and pair selection, the
criteria and the choice of reducer read only leading terms and
signatures, so when every zero test agrees the replay fills the engine
with the loop's members, signatures, step count and zero reductions, bit
for bit: it is exact, not probabilistic.  At the first disagreement the
engine is left untouched, the trace is dropped and the loop runs.  Only
a run whose key has no trace logs, so a degenerate run never replaces
the trace of the ordinary ones.  A trace is stored only when the run
pops fewer than p / 4 terms, so that a chance zero fails fewer than one
replay in four, and fewer than 16,384, so that a large prime keeps
traces small; the store keeps the 16 newest.  Runs over Q never log.
Which route ran, learned, replayed or fallen back, depends on what ran
before in the process, so no report shows it.

Reduced bases are monic, pairwise irreducible and sorted with the largest
leading term first, which makes them canonical for the ring's order.

Elimination, saturation and intersection share one route: the grevlex
basis of the generators comes first; a single kept variable over a
zero-dimensional basis then takes the minimal polynomial of
multiplication by that variable, read off a matrix on the normal set that
the signature loop's own members give, with no interreduction, and
anything else a block-order run started from the reduced grevlex basis,
smallest leading term first.  Saturation feeds a square system
(at most as many generators as variables) in by increasing degree, and an
overdetermined one in the caller's order with 1 - t*g last.  Two
principal ideals in one variable intersect in the ideal of the lcm of
their generators instead, from one univariate gcd.  Every zero-dimensional
question, from the line route to quotient_degree, reads its normal set off
the packed leading terms alone, in one staircase walk with no engine.

Each operation labels its engines with its own name, and a budget error
reports the label of the engine that ran out as its stage: ``groebner``,
``interreduction``, ``elimination``, ``saturation`` or ``intersection``.
So ``saturate`` by several generators reports ``intersection`` when the
intersection of its parts runs out.
"""
from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

import numpy as np

from .exactmath.fields import PrimeField, QQ, field_from_name
from .exactmath.orders import _FIELD_MASK, _W, GREVLEX, BlockElim, _check_fields
from .exactmath.parse import parse_polynomial
from .exactmath.poly import Polynomial, PolyRing
from .exactmath.sturm import (dense_divmod, dense_from_poly, dense_gcd,
                              primitive_integer_form)

DEFAULT_BUDGET = 1_000_000
# what a popped term did in a reduction log, besides the index of the member
# that reduced it
_CANCELLED = -2
_EMITTED = -1
# signature runs over F_p replay from at most this many traces, oldest
# dropped first; a run is traced while 4 * (its popped terms) stays below
# both p and _TRACE_POPS, which keeps a trace under about 3 MB
_TRACE_LIMIT = 16
_TRACE_POPS = 1 << 16
_TRACES: dict = {}


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
        any other shape, or nesting too deep to decode, raises ValueError."""
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("the document is nested too deeply") from None
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
        self.zero_reductions = 0  # signature-loop reductions that left 0
        self.guard = sum(1 << (_W * i + _W - 1) for i in range(self.n))
        self._keyd: dict = {}  # descending sort keys, shared by sub-engines
        # monomial -> index of the first member whose leading term divides
        # it, or ~k after a miss over the first k members (see find_reducer)
        self._reducers: dict = {}
        # basis storage: parallel lists over insertion index.  blt and blk
        # hold the leading terms and their descending keys, blc the leading
        # coefficients (1 over F_p, where members are monic), btail the
        # other terms as (monomial, coefficient, descending key), largest
        # first.  The signature loop also fills bsig with each member's
        # signature monomial and bkey with its signature key minus the
        # ascending key of its leading term, so the member shifted onto the
        # term e has the signature key bkey + key_asc(e).
        self.blt: list[int] = []
        self.blk: list[int] = []
        self.blc: list[int] = []
        self.btail: list[list] = []
        self.bsig: list[int] = []
        self.bkey: list[int] = []

    # -- encoding ----------------------------------------------------------
    @staticmethod
    def encode(mon) -> int:
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
        """Encoded term dict of den * f, largest term first, and den: over
        Q den is the lcm of the coefficient denominators, so the dict holds
        integers; over F_p it is 1."""
        terms = f.sorted_terms()
        if self.modp:
            return {self.encode(mon): c for mon, c in terms}, 1
        den = lcm(*(c.denominator for _, c in terms))
        return {self.encode(mon): c.numerator * (den // c.denominator)
                for mon, c in terms}, den

    def dict_to_poly(self, d: dict, scale=1) -> Polynomial:
        """The polynomial d / scale; scale is always 1 over F_p."""
        if self.modp:
            return self.ring.from_terms({self.decode(e): c for e, c in d.items()})
        return self.ring.from_terms(
            {self.decode(e): Fraction(c, scale) for e, c in d.items()})

    # -- basis management ---------------------------------------------------
    def add_basis_poly(self, d: dict):
        """Insert a polynomial given as an encoded term dict, largest term
        first: monic over F_p, with integer coefficients over Q."""
        cache = self._keyd
        keyd = self.keyd
        # nearly every key is cached already: keyd runs only on a miss
        items = [(e, c, cache[e] if e in cache else keyd(e))
                 for e, c in d.items()]
        lt, lc, lk = items[0]
        self.blt.append(lt)
        self.blk.append(lk)
        self.blc.append(lc)
        self.btail.append(items[1:])

    def shifted(self, k: int, t: int) -> dict:
        """Member k times the monomial t, as an encoded term dict.  Keys are
        affine in the exponents, so the keys of its terms are those of the
        member's terms plus one shift, and go into the key cache."""
        kt = self.keyd(t) - self.keyd(0)
        cache = self._keyd
        e = self.blt[k] + t
        cache[e] = self.blk[k] + kt
        d = {e: self.blc[k]}
        for e, c, ke in self.btail[k]:
            e += t
            cache[e] = ke + kt
            d[e] = c
        return d

    def tick(self):
        self.steps += 1
        if self.steps > self.budget:
            raise BudgetExhaustedError(self.stage, self.budget)

    # -- reduction kernel ---------------------------------------------------
    def find_reducer(self, e: int, lim: int | None = None) -> int:
        """Index of the first member whose leading term divides e and, when
        lim is given, whose bkey lies below lim; -1 if there is none.
        Members are only ever appended, so the first divisor of e, once
        found, is remembered for good, and a scan that found no divisor
        among the first k members resumes at k."""
        r = self._reducers.get(e, -1)
        if r < 0:
            start = ~r
        elif lim is None or self.bkey[r] < lim:
            return r
        else:
            start = r + 1
        blt = self.blt
        bkey = self.bkey
        guard = self.guard
        eg = e | guard
        for i in range(start, len(blt)):
            if (eg - blt[i]) & guard == guard:
                if r < 0:
                    self._reducers[e] = r = i
                if lim is None or bkey[i] < lim:
                    return i
        if r < 0:
            self._reducers[e] = ~len(blt)
        return -1

    def reduce_full(self, fdict: dict, bound: int | None = None,
                    log: list | None = None
                    ) -> tuple[dict, int | Fraction] | None:
        """Full reduction of an encoded term dict: (R, scale), where
        R / scale is the remainder of the dict, largest term first.  Over
        F_p scale is 1; over Q the dict holds integers, R is primitive and
        scale a Fraction.

        Under a signature key bound, a member reduces a term only when its
        signature shifted onto that term is smaller than the bound.  When
        the remainder's leading term is divisible only by members whose
        shifted signature is not smaller, and one of them equals the bound,
        the polynomial is redundant and the result is None.

        A log list receives (e, what) for every popped term e, in order:
        _CANCELLED, _EMITTED, or the index of the member that reduced it."""
        p = self.p
        coeff = dict(fdict)
        cache = self._keyd
        keyd = self.keyd
        heap = [(cache[e] if e in cache else keyd(e), e) for e in coeff]
        heapq.heapify(heap)
        out: dict = {}
        scale = 1  # product of the factors the working polynomial took
        blt = self.blt
        blk = self.blk
        blc = self.blc
        btail = self.btail
        bkey = self.bkey
        reducers = self._reducers
        nb = len(blt)
        find = self.find_reducer
        divides = self.divides
        push = heapq.heappush
        pop = heapq.heappop
        while heap:
            kd, e = pop(heap)
            # a pending coefficient is reduced mod p only here; a term that
            # cancelled stays pending as a zero
            c = coeff.pop(e)
            if p:
                c %= p
            if not c:
                if log is not None:
                    log.append((e, _CANCELLED))
                continue
            # a remembered first divisor or a miss over all nb members, else
            # the scan of find_reducer; under a bound, bkey + key_asc(e) <
            # bound reads bkey < lim
            idx = reducers.get(e, -1)
            if bound is None:
                if idx < 0 and ~idx < nb:
                    idx = find(e)
            else:
                lim = bound + kd
                if idx >= 0 and bkey[idx] >= lim or idx < 0 and ~idx < nb:
                    idx = find(e, lim)
            if idx < 0:
                if log is not None:
                    log.append((e, _EMITTED))
                if bound is not None and not out:
                    # the leading term, and no member of smaller signature
                    # divides it: redundant when a divisor has the bound's
                    # signature (from the remembered first divisor on)
                    r = reducers.get(e, -1)
                    if r >= 0 and any(bkey[k] == lim and divides(blt[k], e)
                                      for k in range(r, len(blt))):
                        return None
                out[e] = c
                continue
            if log is not None:
                log.append((e, idx))
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
            # keys are affine in the exponents, so te = me + shift has the
            # key of me plus that of shift
            shift = e - blt[idx]
            kshift = kd - blk[idx]
            for me, gc, km in btail[idx]:
                te = me + shift
                old = coeff.get(te)
                if old is None:
                    coeff[te] = -q * gc
                    push(heap, (km + kshift, te))
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
        coefficient.  The first term of d is its leading term."""
        lc = next(iter(d.values()))
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


def _resolve_ring(gens: Sequence[Polynomial], ring: PolyRing | None) -> PolyRing:
    if ring is not None:
        return ring
    for g in gens:
        return g.ring
    raise ValueError("cannot infer a ring from an empty generator list")


def groebner_basis(gens: Iterable[Polynomial], ring: PolyRing | None = None, *,
                   budget: int | None = None) -> GroebnerBasis:
    """Reduced Groebner basis for the ring's own monomial order."""
    gens = [g for g in gens]
    ring = _resolve_ring(gens, ring)
    return _basis(_finalize(_buchberger(_Engine(ring, budget, "groebner"),
                                        gens)))


def _buchberger(eng: _Engine, gens: list[Polynomial]) -> _Engine:
    """The engine, its members now a Groebner basis of the generators for
    the order of its ring, neither minimal nor reduced; _finalize gives the
    reduced basis.

    A signature-based run.  Generator i has the signature (i, 1), and
    signatures compare position over term: the generators are taken in the
    caller's order and position i runs to the end before i + 1 starts.
    Within a position the signatures of the S-pairs are taken in
    increasing order, each once.  For a signature T the polynomial reduced
    is t * g for the member g whose signature divides T with the smallest
    leading term t * lt(g), the newest among equals (the rewrite
    criterion); other pairs of signature T are never formed.  The
    reduction uses only reducers of smaller signature; a zero result
    records T as a syzygy, a result whose leading term only a multiple of
    signature T divides is dropped, and any other becomes a member of
    signature T.

    A signature (i, s) is one integer key, i * base + key_asc(s), and since
    every order key is an affine function of the exponents, the member g
    shifted by the monomial u has the key bkey[g] + key_asc(u * lt(g)).
    """
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
        return eng
    # a run over F_p from an empty engine has a key; a run of a key with no
    # trace logs every reduction, and a later run replays the trace when it
    # fits the budget, dropping it when a zero test comes out different
    journal = None  # (source, log, result) per reduction of a learning run
    if eng.modp and not eng.blt:
        run_key = (eng.p, eng.n, eng.ring.order,
                   tuple(tuple(d) for d in start))
        trace = _TRACES.get(run_key)
        if trace is None:
            journal = []
            room = min(eng.p, _TRACE_POPS)  # 4 * pops must stay below it
        elif eng.steps + trace.steps <= eng.budget:
            if _replay(eng, trace, start):
                return eng
            del _TRACES[run_key]

    keyd = eng.keyd
    divides = eng.divides
    bsig = eng.bsig
    bkey = eng.bkey
    # larger than the ascending key of any monomial
    top = eng.ring.order.key_asc((_FIELD_MASK >> 1,) * eng.n)
    base = 1 << top.bit_length()
    for pos, f in enumerate(start):
        lower = len(eng.blt)  # members 0 .. lower - 1 have earlier positions
        # the minimal leading terms of those members, for the F5 criterion
        earlier = [eng.blt[k] for k in _minimal(eng)]
        syz: list[int] = []   # signature monomials of zero reductions here
        queue: dict = {}      # signature key -> signature monomial
        heap: list[int] = []  # the keys of queue
        sig, mon, poly, source = pos * base - keyd(0), 0, f, pos
        while True:
            log = None if journal is None else []
            red = eng.reduce_full(poly, sig, log)
            if journal is not None:
                journal.append((source, log, red))
                room -= 4 * len(log)
                if room <= 0:
                    journal = None  # too long to store: log no more
            if red is not None:
                if red[0]:
                    _add_member(eng, eng.normalize(red[0]), sig, mon, lower,
                                earlier, syz, queue, heap)
                else:
                    eng.zero_reductions += 1
                    syz.append(mon)
            while heap:
                sig = heapq.heappop(heap)
                mon = queue.pop(sig)
                if not (syz and any(divides(z, mon) for z in syz)):
                    break
            else:
                break
            # the rewriter: the largest bkey gives the smallest leading term
            g = -1
            for j in range(lower, len(bsig)):
                if divides(bsig[j], mon) and (g < 0 or bkey[j] >= bkey[g]):
                    g = j
            source = (g, mon - bsig[g])
            poly = eng.shifted(*source)
    if journal is not None:
        _learn(eng, run_key, start, journal)
    return eng


def _add_member(eng: _Engine, d: dict, sig: int, mon: int, lower: int,
                earlier: list, syz: list, queue: dict, heap: list):
    """Append a member of signature key sig and signature monomial mon, and
    queue the signatures of its S-pairs with the older members.

    A pair's signature is the larger of its two shifted signatures; a pair
    whose two sides have equal signatures is never queued.  The F5 criterion
    drops a pair when one of the earlier positions' minimal leading terms
    divides the signature monomial, and the syzygy criterion when a zero
    reduction of this position has a signature dividing it.
    """
    m = len(eng.blt)
    eng.add_basis_poly(d)
    blt = eng.blt
    bkey = eng.bkey
    bsig = eng.bsig
    lt = blt[m]
    key = sig + eng.blk[m]
    bsig.append(mon)
    bkey.append(key)
    guard = eng.guard
    cache = eng._keyd
    keyd = eng.keyd
    ltg = lt | guard
    for k in range(m):
        # the shifted signatures of both sides have the lcm's key in common
        if k < lower or bkey[k] < key:
            side = m
        elif bkey[k] > key:
            side = k
        else:
            continue
        # the lcm of the two leading terms, as in _Engine.lcm
        a = blt[k]
        mask = (((ltg - a) & guard) >> (_W - 1)) * _FIELD_MASK
        l = (lt & mask) | (a & ~mask)
        smon = bsig[side] + l - blt[side]
        g = smon | guard
        # an older member of an earlier position is the likeliest cover
        if k < lower and (g - a) & guard == guard:
            continue
        for e in earlier:
            if (g - e) & guard == guard:
                break
        else:
            for z in syz:
                if (g - z) & guard == guard:
                    break
            else:
                s = bkey[side] - (cache[l] if l in cache else keyd(l))
                if s not in queue:
                    queue[s] = smon
                    heapq.heappush(heap, s)


@dataclass(frozen=True)
class _Trace:
    """A signature run over F_p as a program on coefficients alone.

    Reduction r is (source, pad, reduced, emitted, cancelled, adds).  The
    source is generator i (i >= 0) or member g shifted (~g); its terms fill
    the first slots of a work list, pad the rest.  reduced holds (slot, k,
    targets) for each term that member k reduced, in order: the member's
    tail lands on the target slots.  Every other popped term was emitted
    or cancelled, at the slots listed.  adds says the remainder became the
    next member, whose leading and tail monomials, keys, signature and
    signature key the other fields hold; keys is the run's key cache."""

    reductions: list
    lts: list
    lks: list
    tails: list
    tail_keys: list
    bsig: list
    bkey: list
    steps: int
    zero_reductions: int
    keys: dict


def _learn(eng: _Engine, key, start: list, journal: list):
    """Store the trace of the run just made from the generators start, as
    journal logged it."""
    blt = eng.blt
    tails = [[e for e, _, _ in tail] for tail in eng.btail]
    reductions = []
    for source, log, red in journal:
        if isinstance(source, int):
            mons = list(start[source])
        else:
            g, t = source
            mons = [blt[g] + t, *(e + t for e in tails[g])]
            source = ~g
        slot = {e: i for i, e in enumerate(mons)}
        reduced, emitted, cancelled = [], [], []
        for e, what in log:
            if what >= 0:
                shift = e - blt[what]
                reduced.append((slot[e], what,
                                [slot.setdefault(me + shift, len(slot))
                                 for me in tails[what]]))
            else:
                (emitted if what == _EMITTED else cancelled).append(slot[e])
        reductions.append((source, [0] * (len(slot) - len(mons)), reduced,
                           emitted, cancelled, bool(red and red[0])))
    _TRACES[key] = _Trace(
        reductions, list(blt), list(eng.blk), tails,
        [[k for _, _, k in tail] for tail in eng.btail], list(eng.bsig),
        list(eng.bkey), sum(len(r[2]) for r in reductions),
        eng.zero_reductions, dict(eng._keyd))
    while len(_TRACES) > _TRACE_LIMIT:
        del _TRACES[next(iter(_TRACES))]


def _replay(eng: _Engine, trace: _Trace, start: list) -> bool:
    """Run the trace on the coefficients of the generators start, mod p,
    and fill the engine as the signature loop would; False, with the engine
    untouched, when a term that cancelled does not cancel or one that was
    emitted or reduced does.  Members are monic, and every choice of the
    loop other than these zero tests reads only leading terms and
    signatures, so when all of them agree the members are those of the
    loop, bit for bit.

    A step only changes terms below the one it reduces, which the loop
    pops later, so each slot holds its popped value from its pop on: the
    emitted and cancelled terms are read once all steps are done."""
    p = eng.p
    gens = [list(d.values()) for d in start]
    tails: list[list[int]] = []
    for source, pad, reduced, emitted, cancelled, adds in trace.reductions:
        w = (gens[source] if source >= 0 else [1, *tails[~source]]) + pad
        for slot, k, targets in reduced:
            c = w[slot] % p
            if not c:
                return False
            for t, gc in zip(targets, tails[k]):
                w[t] -= c * gc
        out = [w[slot] % p for slot in emitted]
        if not all(out) or any(w[slot] % p for slot in cancelled):
            return False
        if adds:
            inv = pow(out[0], -1, p)
            tails.append([inv * c % p for c in out[1:]])
    eng.blt.extend(trace.lts)
    eng.blk.extend(trace.lks)
    eng.blc.extend([1] * len(tails))
    eng.btail.extend(list(zip(*tail)) for tail in zip(trace.tails, tails,
                                                       trace.tail_keys))
    eng.bsig.extend(trace.bsig)
    eng.bkey.extend(trace.bkey)
    eng.steps += trace.steps
    eng.zero_reductions += trace.zero_reductions
    eng._keyd.update(trace.keys)
    return True


def _minimal(eng: _Engine) -> list[int]:
    """The indices of the members whose leading terms no other member's
    divides, by ascending leading term; of equal leading terms the newest
    member is kept."""
    kept: list[int] = []
    for _, idx in sorted(((eng.keyd(lt), idx) for idx, lt
                          in enumerate(eng.blt)), reverse=True):
        if not any(eng.divides(eng.blt[k], eng.blt[idx]) for k in kept):
            kept.append(idx)
    return kept


def _finalize(eng: _Engine) -> _Engine:
    """A new engine that holds the reduced basis of the ideal that the
    engine's members, a Groebner basis, generate: the minimal members,
    tail-reduced and normalized, smallest leading term first.  It charges
    the same budget and shares the key cache."""
    # interreduce in one engine that holds the kept members in ascending
    # order, reducing each tail and writing it back.  A tail term lies below
    # its own leading term, so only the other members can divide it: the
    # reducers are those of reducing each member against all the others.
    red = _Engine(eng.ring, eng.budget, eng.stage, eng.steps)
    red._keyd = eng._keyd
    for idx in _minimal(eng):
        red.add_basis_poly({eng.blt[idx]: eng.blc[idx],
                            **{e: c for e, c, _ in eng.btail[idx]}})
    for k, lt in enumerate(red.blt):
        rem, scale = red.reduce_full({e: c for e, c, _ in red.btail[k]})
        # the member is lc * lt + rem / scale
        d = red.normalize({lt: red.blc[k] * scale.numerator,
                           **{e: c * scale.denominator for e, c in rem.items()}})
        red.blc[k] = d[lt]
        red.btail[k] = [(e, c, red.keyd(e)) for e, c in d.items() if e != lt]
    return red


def _basis(red: _Engine) -> GroebnerBasis:
    """The reduced basis a _finalize engine holds, decoded and made monic,
    largest leading term first."""
    return GroebnerBasis(red.ring, tuple(
        red.dict_to_poly({lt: lc, **{e: c for e, c, _ in tail}}, lc)
        for lt, lc, tail in zip(reversed(red.blt), reversed(red.blc),
                                reversed(red.btail))))


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
    return _basis(_finalize(eng)).polys


def eliminate(gens: Iterable[Polynomial], drop: Sequence[str], ring: PolyRing | None = None, *,
              budget: int | None = None) -> GroebnerBasis:
    """Eliminate the named variables; returns a basis in the smaller ring.

    The result ring keeps the remaining variables in their original order
    and uses graded reverse lexicographic comparison.
    """
    gens = list(gens)
    return _eliminate(gens, _resolve_ring(gens, ring), drop, budget,
                      "elimination")


def _eliminate(gens: list[Polynomial], ring: PolyRing, drop: Sequence[str],
               budget: int | None, stage: str) -> GroebnerBasis:
    """Basis of <gens> intersected with the ring of the kept variables.

    The grevlex basis G of the generators, with the dropped variables
    first, always comes first.  When exactly one variable s is kept and G
    is zero-dimensional, the answer is the minimal polynomial of
    multiplication by s on the quotient (the univariate step of FGLM,
    Faugere, Gianni, Lazard and Mora 1993), read by _minimal_polynomial off
    the signature loop's engine: G is neither interreduced nor decoded.
    Otherwise a block-order Buchberger run starts from the members of the
    reduced G, the cheap end of a Groebner walk: G generates the same ideal
    and reduced bases are unique, so the result is that of block
    elimination from the generators.  The members go in smallest leading
    term first: on the twisted cubic family that takes the block run less
    than half the steps of largest first.  Both steps charge one step
    budget.
    """
    head, tail = _split_variables(ring, drop)
    names = head + tail
    grevlex = PolyRing(names, field=ring.field, order=GREVLEX)
    var_map = [grevlex.index_of(v) for v in ring.variables]
    eng = _buchberger(_Engine(grevlex, budget, stage),
                      [f.map_ring(grevlex, var_map) for f in gens])
    if len(tail) == 1 and (normal := _normal_set(eng.blt, eng.n)) is not None:
        return _minimal_polynomial(eng, tail[0], normal)
    red = _finalize(eng)
    work = PolyRing(names, field=ring.field, order=BlockElim(len(head)))
    return _block_eliminate(_Engine(work, budget, stage, red.steps),
                            [Polynomial(work, p.terms)
                             for p in reversed(_basis(red).polys)])


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
    gb = _basis(_finalize(_buchberger(eng, gens)))
    tail = work.variables[k:]
    sub = PolyRing(tail, field=work.field, order=GREVLEX)
    # block order: a head-free leading term forces a head-free polynomial
    sub_map = [-1] * k + list(range(len(tail)))
    out = [p.map_ring(sub, sub_map) for p in gb.polys
           if not any(p.leading_monomial()[:k])]
    out.sort(key=lambda p: sub.key_desc(p.leading_monomial()))
    return GroebnerBasis(sub, tuple(out))


def _adjoin_t(ring: PolyRing, polys: list[Polynomial]):
    """A ring with a fresh first variable t, then the ring's variables; t
    and the polynomials moved into it."""
    tname = "_t"
    while tname in ring.variables:
        tname += "t"
    work = PolyRing((tname,) + ring.variables, field=ring.field)
    var_map = list(range(1, work.nvars))
    return work, work.variable(tname), [f.map_ring(work, var_map)
                                        for f in polys]


def saturate(gens: Iterable[Polynomial], sat: Iterable[Polynomial],
             ring: PolyRing | None = None, *,
             budget: int | None = None) -> GroebnerBasis:
    """Saturation (I : J^infinity), J given by generators.

    Computed per nonzero generator with saturate_eliminate and intersected
    across generators.  With no nonzero generator J is the zero ideal, and
    I : 0^infinity is the unit ideal: f * 0^N = 0 lies in I for every f.
    """
    gens, sat = list(gens), list(sat)
    ring = _resolve_ring(gens + sat, ring)
    sat = [s for s in sat if not s.is_zero()]
    if not sat:
        return GroebnerBasis(ring, (ring.one(),))
    partial: GroebnerBasis | None = None
    for g in sat:
        one = _realign(saturate_eliminate(gens, g, (), ring, budget=budget),
                       ring, budget, "saturation")
        if partial is None:
            partial = one
        else:
            partial = intersect(partial.polys, one.polys, ring,
                                budget=budget)
    return partial


def saturate_eliminate(gens: Iterable[Polynomial], g: Polynomial,
                       drop: Sequence[str], ring: PolyRing | None = None, *,
                       budget: int | None = None) -> GroebnerBasis:
    """Basis of (<gens> : g^infinity) intersected with the ring of the kept
    variables, in a grevlex ring on those variables.

    The saturation adds 1 - t*g for a fresh variable t, which is then
    eliminated together with the dropped variables.

    The signature loop takes its input in the order given here.  A system
    with at most as many generators as variables (the critical systems of
    curves) goes in by increasing total degree, ties in the caller's order,
    the incremental order F5 is designed for: on the plane quartics of the
    degree lab it takes 38 % fewer reduction steps.  An overdetermined
    system (the dependent minors of a surface) keeps the caller's order
    with 1 - t*g last, because sorting it costs up to 2.3 times the steps.
    """
    gens = list(gens)
    ring = _resolve_ring(gens + [g], ring)
    work, t, moved = _adjoin_t(ring, gens + [g])
    moved.append(work.one() - t * moved.pop())
    if len(gens) <= ring.nvars:
        moved.sort(key=Polynomial.total_degree)
    return _eliminate(moved, work, [work.variables[0], *drop], budget,
                      "saturation")


def _minimal_polynomial(eng: _Engine, name: str,
                        normal: list[int]) -> GroebnerBasis:
    """Monic generator of the ideal of the engine's basis intersected with
    k[name].

    The engine must hold a zero-dimensional Groebner basis, as the
    signature loop leaves it, and normal is its normal set, 1 first, which
    _normal_set reads off the members' leading terms alone.  Column b of
    the matrix M of multiplication by s is s * b itself when that stays in
    the normal set, else NF(s * b), one full reduction against the
    engine's members that charges its budget.  The generator is the first
    linear dependence among the Krylov vectors e1, M e1, M^2 e1, ... of the
    class of 1, found by one echelon of the rows [M^i e1 | e_i]: the row
    that vanishes on the first block holds the dependence in the second.

    Over F_p the arithmetic is mod p in int64 when the D terms of a matrix
    product, each at most (p - 1)^2, sum below 2^63 (D the size of the
    normal set), else the same code on Python integers; pivots are scaled
    to 1.  Over Q the columns are brought to one denominator L, so the
    integer matrix N = L * M replaces M; each Krylov vector is divided by
    its content, so it is lam(i) times M^i e1, and the echelon is
    fraction-free (Bareiss): a pivot row R with pivot P clears the rows
    below as (P * v - v[pivot] * R) / P', P' the previous pivot, which
    divides exactly.  The dependence sum c(i) * row(i) = 0 gives the
    coefficients c(i) * lam(i), made monic.
    """
    p = eng.p
    sub_ring = PolyRing((name,), field=eng.field, order=GREVLEX)
    if not normal:  # the unit ideal
        return GroebnerBasis(sub_ring, (sub_ring.one(),))
    size = len(normal)
    index = {b: i for i, b in enumerate(normal)}
    shift = 1 << (_W * eng.ring.index_of(name))
    cols = []  # column b is R / scale
    for b in normal:
        e = b + shift
        cols.append(({e: 1}, 1) if e in index else eng.reduce_full({e: 1}))
    den = lcm(*(scale.numerator for _, scale in cols))
    dtype = np.int64 if p and size * (p - 1) ** 2 < 1 << 63 else object
    mat = np.zeros((size, size), dtype=dtype)
    for j, (rem, scale) in enumerate(cols):
        m = den // scale.numerator * scale.denominator
        for e, c in rem.items():
            mat[index[e], j] = c * m
    # rows [w(i) | e_i] with w(i) = lam(i) * M^i e1, i = 0 .. size
    rows = np.zeros((size + 1, 2 * size + 1), dtype=dtype)
    rows[:, size:] = np.identity(size + 1, dtype=dtype)
    rows[0, 0] = 1
    w = rows[0, :size]
    lams = [Fraction(1)]
    for i in range(1, size + 1):
        w = mat @ w
        if p:
            w %= p
        else:
            content = gcd(*w.tolist()) or 1  # 0 once s^i is in the ideal
            w //= content
            lams.append(lams[-1] * den / content)
        rows[i, :size] = w
    prev = 1
    for i in range(size + 1):
        row = rows[i]
        nonzero = row[:size].nonzero()[0]
        if not nonzero.size:
            break
        q = nonzero[0]
        pivot = int(row[q])
        rest = rows[i + 1:]
        if p:
            rest -= rest[:, q, None] * (row * pow(pivot, -1, p) % p)
            rest %= p
        else:
            rest[:] = (pivot * rest - rest[:, q, None] * row) // prev
            prev = pivot
    combo = row[size:size + i + 1].tolist()
    if p:
        inv = pow(combo[-1], -1, p)
        coeffs = [c * inv % p for c in combo]
    else:
        top = combo[-1] * lams[i]
        coeffs = [c * lam / top for c, lam in zip(combo, lams)]
    return GroebnerBasis(sub_ring, (sub_ring.from_terms(
        {(m,): c for m, c in enumerate(coeffs)}),))


def _normal_set(lts: Sequence[int], n: int) -> list[int] | None:
    """The monomials in n variables that none of the packed leading terms
    lts divides, 1 first: empty for the unit ideal (0 in lts), None when the
    set is infinite, that is when some variable has no pure power among lts.
    The set is closed under division, so each of its monomials is reached
    once, from the monomial without one factor of its last variable."""
    if 0 in lts:
        return []
    # no leading term is 1, so one with no bit outside a variable's field
    # is a pure power of that variable
    for v in range(n):
        outside = ~(_FIELD_MASK << (_W * v))
        if all(lt & outside for lt in lts):
            return None
    guard = sum(1 << (_W * i + _W - 1) for i in range(n))
    xs = [1 << (_W * v) for v in range(n)]
    walk = [(0, 0)]  # (monomial, its last variable)
    for b, last in walk:
        for v in range(last, n):
            m = b + xs[v]
            if all(((m | guard) - lt) & guard != guard for lt in lts):
                walk.append((m, v))
    return [b for b, _ in walk]


def _realign(gb: GroebnerBasis, ring: PolyRing, budget, stage) -> GroebnerBasis:
    """Move a grevlex basis on the ring's variables into the ring itself."""
    if gb.ring == ring:
        return gb
    back = [ring.index_of(v) for v in gb.ring.variables]
    polys = [p.map_ring(ring, back) for p in gb.polys]
    if ring.order == GREVLEX:
        return GroebnerBasis(ring, tuple(polys))
    return _basis(_finalize(_buchberger(_Engine(ring, budget, stage), polys)))


def intersect(gens_a: Iterable[Polynomial], gens_b: Iterable[Polynomial],
              ring: PolyRing | None = None, *,
              budget: int | None = None) -> GroebnerBasis:
    """Intersection of two ideals.  In one variable, two ideals with one
    nonzero generator each meet in the ideal of their lcm (Cox, Little and
    O'Shea, section 4.3), found with no engine and no reduction step; any
    other pair eliminates t from t * I + (1 - t) * J."""
    gens_a = list(gens_a)
    gens_b = list(gens_b)
    ring = _resolve_ring(gens_a + gens_b, ring)
    a, b = ([f for f in gens if not f.is_zero()] for gens in (gens_a, gens_b))
    if ring.nvars == 1 and len(a) == len(b) == 1:
        # the lcm g * (f / gcd(g, f)), g of the larger degree so that
        # Euclid's first division reduces; over F_p the primitive integer
        # forms are unit multiples of f and g
        f, g = sorted(a + b, key=Polynomial.total_degree)
        p = ring.field.p if isinstance(ring.field, PrimeField) else 0
        df, dg = (primitive_integer_form(dense_from_poly(h)) for h in (f, g))
        cofactor, _ = dense_divmod(df, dense_gcd(dg, df, p), p)
        cofactor = ring.from_terms({(i,): ring.field.coerce(c)
                                    for i, c in enumerate(cofactor)})
        return GroebnerBasis(ring, ((g * cofactor).monic(),))
    work, t, moved = _adjoin_t(ring, gens_a + gens_b)
    one_minus_t = work.one() - t
    moved = ([t * f for f in moved[:len(gens_a)]]
             + [one_minus_t * f for f in moved[len(gens_a):]])
    gb = _eliminate(moved, work, [work.variables[0]], budget, "intersection")
    return _realign(gb, ring, budget, "intersection")


def is_zero_dimensional(gb: GroebnerBasis) -> bool:
    """True when the quotient ring is a finite-dimensional vector space."""
    return _normal_set([_Engine.encode(m) for m in gb.leading_monomials()],
                       gb.ring.nvars) is not None


def quotient_degree(gb: GroebnerBasis) -> int:
    """Vector-space dimension of the quotient by a zero-dimensional ideal.

    The unit ideal has degree zero; a basis that is not zero-dimensional
    raises NotZeroDimensionalError.
    """
    normal = _normal_set([_Engine.encode(m) for m in gb.leading_monomials()],
                         gb.ring.nvars)
    if normal is None:
        raise NotZeroDimensionalError("ideal is not zero-dimensional")
    return len(normal)
