"""The deformed product: Euler characteristics of open triple intersections.

The structure constant chi(u, v, w) of the deformed product is the Euler
characteristic of the intersection of two opposite cells with a general
translate of a third.  No general translate is ever materialized: chi is
computed by two proved identities,

* a triple sum of CSM coefficients against triple integrals,
* a single coefficient of the CSM-basis expansion of a Richardson class,

and the two results must agree.  Disagreement is an internal failure.  A
third identity, the pairing of the Richardson class against a Segre cell
class, would add no check: every Segre cell class is built as the sign
twist of its CSM class (AMSS, arXiv:1709.08697), so under the enforced
parity check the pairing equals the triple sum term by term, and by AMSS
duality it equals the expansion coefficient.  The triple sum against the
expansion catches every fault a comparison with the pairing would.  The
triple sum's factor for u, the sum of (-1)^(l(u) - l(u1)) c_u1 eps^u1 with
c the coefficients of csm(cell w0 u), is seg(cell w0 u), as
``segre_schubert_cell`` enforces, so its product with csm(cell w0 v) is
the Richardson class R of (w0 u, v).

Every w of a pair (u, v) is read off one row, ``chi_row``: R, its peeled
expansion d and its triple sum sit in the Richardson calculator's held
row, w0 u.  The triple sum adds R[y] c over (w, c) in the column at w0 y
of the CSM calculator's column index, for y in R (x -> [(w, c)], c the
coefficient at eps^x of csm(cell w)); conjC's duality read of R shares
it (``RichardsonCalculator._triple_sum``).  The triple-sum row signs each
entry by l(w) - l(u) - l(v); the expansion row is {w0 x: d[x]}.
cross-paths compares the two rows at every w; conjD reads the expansion
row for its values and compares its sign verdict with the duality read of
R; and ``box_product`` reads one row, cross-validated at every w of length
at least l(u) + l(v); both find the w where the paths disagree by one
scan, ``ChiRow.disagreements``.  ``chi`` and the per-path readers read one
triple of a row; ``chi_via_pairing`` alone pairs R with seg(cell w)
directly, and no check reads it.  This calculator holds no state.

``associativity_status`` packs each box row of its table into one int, once
per call: a signed k-bit slot per element some row reaches, numbered in
sorted order, k one more than the bit length of 2 l1 big (l1 the largest L1
norm of a row, big its largest entry), which keeps every slot of an
associator below 2^(k-1) in size.  So each associator term is one
multiply-add, and the associator is 0 exactly when its packed int is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import CohomologyClass, _slot_bits
from .errors import PathDisagreement
from .richardson import RichardsonCalculator
from .rootdata import WeylElement

#: associativity is not computed when the filtered cube exceeds this; it
#: stays at 250,000, because moving it would change which reports read
#: "not computed at this scale"
ASSOCIATIVITY_TRIPLE_BUDGET = 250_000


@dataclass
class ChiProvenance:
    """The two path values for one triple and their agreement flag."""

    triple_sum: int
    expansion: int

    @property
    def agree(self) -> bool:
        return self.triple_sum == self.expansion

    @property
    def value(self) -> int:
        return self.expansion

    def __str__(self):
        return f"triple-sum {self.triple_sum}, expansion {self.expansion}"


@dataclass
class ChiRow:
    """The two path values of chi(u, v, w) for every w of one pair (u, v):
    each path's nonzero entries, keyed by the index of w."""

    triple_sum: dict[int, int]
    expansion: dict[int, int]

    @property
    def agree(self) -> bool:
        return self.triple_sum == self.expansion

    def provenance(self, wi: int) -> ChiProvenance:
        return ChiProvenance(self.triple_sum.get(wi, 0), self.expansion.get(wi, 0))

    def disagreements(self) -> list[tuple[int, ChiProvenance]]:
        """(index of w, provenance) at every w where the paths disagree, in
        index order."""
        if self.agree:
            return []
        keys = self.triple_sum.keys() | self.expansion.keys()
        return [(wi, prov) for wi in sorted(keys) if not (prov := self.provenance(wi)).agree]


def _disagreement(u, v, w, prov: ChiProvenance) -> PathDisagreement:
    return PathDisagreement(f"chi({u}, {v}, {w}): {prov}")


class BoxCalculator:
    """Deformed-product structure constants and classes for one group."""

    def __init__(self, rich: RichardsonCalculator):
        self.rich = rich
        self.csm = rich.csm
        self.coh = rich.coh
        self.group = rich.group

    # -- the two paths, each over every w of a pair, by element index -------------

    def _triple_sum_row(self, u: WeylElement, v: WeylElement) -> dict[int, int]:
        """Triple sum of CSM coefficients against triple integrals: the pairing
        of csm(cell w) with the Richardson class of (w0 u, v), signed by the
        dimension l(w) - l(u) - l(v); nonzero entries by w.  Read off the
        Richardson row's signed sum (``RichardsonCalculator._triple_sum``)
        at w0*w, whose sign is this one."""
        r, w0 = self.group.w0_times(u), self.group._w0
        return {w0[x]: c for x, c in self.rich._triple_sum(r, v).items()}

    def expansion_row(self, u: WeylElement, v: WeylElement) -> dict[int, int]:
        """Coefficient at w0*w of the CSM-basis expansion of the Richardson
        class of (w0 u, v), nonzero entries by the index of w."""
        self.coh._check(u, v)
        w0 = self.group._w0
        return {w0[x]: c for x, c in self.rich._expansion(self.group.w0_times(u), v).items()}

    def chi_row(self, u: WeylElement, v: WeylElement) -> ChiRow:
        """Both paths for every w of the pair (u, v), unconditionally."""
        self.coh._check(u, v)
        return ChiRow(self._triple_sum_row(u, v), self.expansion_row(u, v))

    # -- per-triple readers ----------------------------------------------------------

    def chi_via_triple_sum(self, u: WeylElement, v: WeylElement, w: WeylElement) -> int:
        """The triple-sum path at one triple."""
        self.coh._check(u, v, w)
        return self._triple_sum_row(u, v).get(w.index, 0)

    def chi_via_pairing(self, u: WeylElement, v: WeylElement, w: WeylElement) -> int:
        """Integral of the Richardson class of (w0 u, v) against the Segre
        class of the cell of w, the sum of R[y] seg(cell w)[w0 y]; the
        triple sum given the Segre twist, so no check reads it."""
        self.coh._check(u, v, w)
        seg, w0 = self.csm.segre_schubert_cell(w).coeffs, self.group._w0
        cls = self.rich.csm_richardson(self.group.w0_times(u), v)
        return sum(r * seg.get(w0[y], 0) for y, r in cls.coeffs.items())

    def chi_via_richardson(self, u: WeylElement, v: WeylElement, w: WeylElement) -> int:
        """The expansion path at one triple."""
        self.coh._check(w)
        return self.expansion_row(u, v).get(w.index, 0)

    def chi(self, u: WeylElement, v: WeylElement, w: WeylElement) -> int:
        """The stored chi value (expansion path), if both paths agree."""
        prov = self.chi_provenance(u, v, w)
        if not prov.agree:
            raise _disagreement(u, v, w, prov)
        return prov.value

    def chi_provenance(self, u: WeylElement, v: WeylElement, w: WeylElement) -> ChiProvenance:
        """Both path values, unconditionally."""
        return ChiProvenance(self.chi_via_triple_sum(u, v, w), self.chi_via_richardson(u, v, w))

    # -- the product ---------------------------------------------------------------------

    def box_product(self, u: WeylElement, v: WeylElement) -> CohomologyClass:
        """The deformed product of two basis classes.

        Sum of chi(u, v, w) eps^w over w of length at least l(u) + l(v),
        read off one row whose two paths must agree at each such w; its
        lowest-degree part is the cup product.
        """
        row = self.chi_row(u, v)
        lengths, floor = self.group._lengths, u.length + v.length
        for wi, prov in row.disagreements():
            if lengths[wi] >= floor:
                raise _disagreement(u, v, self.group.elements[wi], prov)
        return CohomologyClass(self.group, {
            wi: c for wi, c in row.expansion.items() if lengths[wi] >= floor
        })

    def box_product_class(self, a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
        """Bilinear extension of the deformed product to arbitrary classes."""
        self.coh._check(a, b)
        els = self.group.elements
        out: dict[int, int] = {}
        for u, cu in a.coeffs.items():
            for v, cv in b.coeffs.items():
                prod = cu * cv
                for w, c in self.box_product(els[u], els[v]).coeffs.items():
                    out[w] = out.get(w, 0) + prod * c
        return CohomologyClass(self.group, out)

    def associativity_status(self, max_length: int | None = None) -> tuple[int, int] | None:
        """Empirical associativity of the deformed product.

        Returns (failures, triples checked) over basis triples with all
        three lengths within the filter, or None when the filtered cube
        exceeds ASSOCIATIVITY_TRIPLE_BUDGET; observed, never asserted.  Its
        box rows live in a table local to the call, indexed by row
        (table[x][y]), over F x F, F the filtered elements, then S x F and
        F x S, S the support of those rows.  The product is commutative, as
        the chi rows are (their pairs (w0 u, v) and (w0 v, u) are w0
        partners), so only the rows (x, y) with x <= y are computed, in
        sorted order, one Richardson row after another; row (y, x) is read
        from (x, y).  Once filled, every row is packed into one int, a
        signed k-bit slot per element that some row reaches (slot numbers
        from the sorted union of the supports), k from ``_slot_bits``, so
        the associator of a triple is one multiply-add per term and is 0
        exactly when every slot is.  In a commutative algebra the
        associator a(u, v, w) = (u box v) box w - u box (v box w) is
        -a(w, v, u), so the triple loop runs over u <= w and counts a
        failure off the diagonal twice.  Both are cut by degree: a row with
        l(x) + l(y) > N is empty, stored with no product made, and a triple
        with l(u) + l(v) + l(w) > N, both sides 0, skipped.
        """
        els, lengths, top = self.group.elements, self.group._lengths, self.group.num_positive
        filtered = [w.index for w in els if max_length is None or w.length <= max_length]
        total = len(filtered) ** 3
        if total > ASSOCIATIVITY_TRIPLE_BUDGET:
            return None
        table: dict[int, dict[int, dict[int, int]]] = {}

        def fill(rows, cols):
            for x, y in sorted({(min(x, y), max(x, y)) for x in rows for y in cols}):
                if y not in table.get(x, ()):
                    table.setdefault(x, {})[y] = table.setdefault(y, {})[x] = (
                        self.box_product(els[x], els[y]).coeffs
                        if lengths[x] + lengths[y] <= top else {})

        fill(filtered, filtered)
        fill(sorted({x for u in filtered for row in table[u].values() for x in row}), filtered)

        rows = [row for by_y in table.values() for row in by_y.values()]
        slot = {z: i for i, z in enumerate(sorted({z for row in rows for z in row}))}
        k = _slot_bits(max((sum(map(abs, row.values())) for row in rows), default=0),
                       max((abs(c) for row in rows for c in row.values()), default=0))
        packed = {x: {y: sum(c << k * slot[z] for z, c in row.items()) for y, row in by_y.items()}
                  for x, by_y in table.items()}

        failures = 0
        for i, u in enumerate(filtered):
            pu = packed[u]
            for v in filtered:
                room = top - lengths[u] - lengths[v]
                uv = [(c, packed[x]) for x, c in table[u][v].items()]
                for w in filtered[i:]:
                    if lengths[w] > room:
                        continue
                    diff = 0
                    for c, px in uv:                        # (u box v) box w
                        diff += c * px[w]
                    for y, c in table[v][w].items():        # u box (v box w)
                        diff -= c * pu[y]
                    if diff:
                        failures += 1 if u == w else 2
        return failures, total
