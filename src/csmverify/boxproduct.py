"""The deformed product: Euler characteristics of open triple intersections.

The structure constant chi(u, v, w) of the deformed product is the Euler
characteristic of the intersection of two opposite cells with a general
translate of a third.  No general translate is ever materialized: chi is
computed by three proved identities,

* a triple sum of CSM coefficients against triple integrals,
* the pairing of a Richardson class against a Segre cell class,
* a single coefficient of the CSM-basis expansion of a Richardson class,

and the three results must agree.  Disagreement is an internal failure.
Only two are independent: given the enforced Segre-twist identity and that
the sign involution phi is a ring map, the pairing and the triple sum are
one formula, so agreement with the expansion is the substantive check.
All three stay hard checks.  The triple sum's factor for u, the sum of
(-1)^(l(u) - l(u1)) c_u1 eps^u1 with c the coefficients of csm(cell w0 u),
is seg(cell w0 u), as ``segre_schubert_cell`` enforces, so its product
with csm(cell w0 v) is the Richardson class of (w0 u, v).  Every w of a
pair (u, v) is read off that class and its expansion, both held in the
Richardson calculator's two-row window; this calculator holds no state.
Every ``chi`` call cross-validates its value (the expansion coefficient);
conjD, whose triples cross-paths checks, reads that path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import CohomologyClass
from .errors import PathDisagreement
from .richardson import RichardsonCalculator
from .rootdata import WeylElement, parity_sign

#: associativity is not computed when the filtered cube exceeds this
ASSOCIATIVITY_TRIPLE_BUDGET = 250_000


@dataclass
class ChiProvenance:
    """The three path values for one triple and their agreement flag."""

    triple_sum: int
    pairing: int
    expansion: int

    @property
    def agree(self) -> bool:
        return self.triple_sum == self.pairing == self.expansion

    @property
    def value(self) -> int:
        return self.expansion


class BoxCalculator:
    """Deformed-product structure constants and classes for one group."""

    def __init__(self, rich: RichardsonCalculator):
        self.rich = rich
        self.csm = rich.csm
        self.coh = rich.coh
        self.group = rich.group

    # -- the three formulas ------------------------------------------------------

    def chi_via_triple_sum(self, u: WeylElement, v: WeylElement, w: WeylElement) -> int:
        """Triple sum of CSM coefficients against triple integrals: the pairing
        of csm(cell w) with the Richardson class of (w0 u, v), signed by the
        dimension l(w) - l(u) - l(v)."""
        self.coh._check(u, v, w)
        cls = self.rich.csm_richardson(self.group.w0_times(u), v)
        total = self.coh.pairing(self.csm.csm_schubert_cell(w), cls)
        return parity_sign(w.length - u.length - v.length) * total

    def chi_via_pairing(self, u: WeylElement, v: WeylElement, w: WeylElement) -> int:
        """Integral of the Richardson class of (w0 u, v) against the Segre
        class of the cell of w."""
        self.coh._check(u, v, w)
        cls = self.rich.csm_richardson(self.group.w0_times(u), v)
        return self.coh.pairing(cls, self.csm.segre_schubert_cell(w))

    def chi_via_richardson(self, u: WeylElement, v: WeylElement, w: WeylElement) -> int:
        """Coefficient at w0*w of the CSM-basis expansion of the Richardson
        class of (w0 u, v)."""
        self.coh._check(u, v, w)
        d = self.rich._expansion(self.group.w0_times(u), v)
        return d.get(self.group._w0[w.index], 0)

    # -- canonical value -----------------------------------------------------------

    def chi(self, u: WeylElement, v: WeylElement, w: WeylElement) -> int:
        """The stored chi value (expansion path), if all three paths agree."""
        prov = self.chi_provenance(u, v, w)
        if not prov.agree:
            raise PathDisagreement(
                f"chi({u}, {v}, {w}): triple-sum {prov.triple_sum}, "
                f"pairing {prov.pairing}, expansion {prov.expansion}"
            )
        return prov.value

    def chi_provenance(self, u: WeylElement, v: WeylElement, w: WeylElement) -> ChiProvenance:
        """All three path values, unconditionally."""
        return ChiProvenance(
            self.chi_via_triple_sum(u, v, w),
            self.chi_via_pairing(u, v, w),
            self.chi_via_richardson(u, v, w),
        )

    def box_product(self, u: WeylElement, v: WeylElement) -> CohomologyClass:
        """The deformed product of two basis classes.

        Sum of chi(u, v, w) eps^w over w of length at least l(u) + l(v),
        each cross-validated; its lowest-degree part is the cup product.
        """
        self.coh._check(u, v)
        floor = u.length + v.length
        return CohomologyClass(self.group, {
            w.index: self.chi(u, v, w) for w in self.group if w.length >= floor
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
        box rows live in a table local to the call, filled row-major
        (Richardson rows in turn) over F x F, F the filtered elements, then
        S x F and F x S, S the support of those rows.
        """
        els = self.group.elements
        filtered = [w.index for w in els if max_length is None or w.length <= max_length]
        total = len(filtered) ** 3
        if total > ASSOCIATIVITY_TRIPLE_BUDGET:
            return None
        table: dict[tuple[int, int], dict[int, int]] = {}

        def fill(rows, cols):
            table.update({(x, y): self.box_product(els[x], els[y]).coeffs
                          for x in rows for y in cols if (x, y) not in table})

        fill(filtered, filtered)
        support = sorted({x for row in table.values() for x in row})
        fill(support, filtered)
        fill(filtered, support)

        failures = 0
        for u in filtered:
            for v in filtered:
                for w in filtered:
                    diff: dict[int, int] = {}
                    for x, c in table[u, v].items():        # (u box v) box w
                        for z, d in table[x, w].items():
                            diff[z] = diff.get(z, 0) + c * d
                    for y, c in table[v, w].items():        # u box (v box w)
                        for z, d in table[u, y].items():
                            diff[z] = diff.get(z, 0) - c * d
                    failures += any(diff.values())
        return failures, total
