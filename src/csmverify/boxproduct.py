"""The deformed product: Euler characteristics of open triple intersections.

The structure constant chi(u, v, w) of the deformed product is the Euler
characteristic of the intersection of two opposite cells with a general
translate of a third.  No general translate is ever materialized: chi is
computed by three proved identities,

* a triple sum over the CSM coefficient matrix against triple integrals,
* the pairing of a Richardson class against a Segre cell class,
* a single coefficient of the CSM-basis expansion of a Richardson class,

and the three results must agree.  Disagreement is an internal failure.
Only two are independent: given the enforced Segre-twist identity and that
the sign involution phi is a ring map, the pairing and the triple sum are
one formula, so agreement with the expansion is the substantive check.
All three stay hard checks.
The canonical stored value is the expansion-coefficient path (cheapest once
the tables exist); cross-validation is exhaustive for groups of order at
most 48 and deterministically sampled above that.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import CohomologyClass
from .errors import PathDisagreement
from .richardson import RichardsonCalculator
from .rootdata import WeylElement, parity_sign

#: groups up to this order always cross-validate all three formulas
FULL_CROSS_VALIDATION_MAX_ORDER = 48
#: above the threshold, one triple in this many is cross-validated
SAMPLED_CROSS_VALIDATION_STRIDE = 23


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
        self._chi: dict[tuple[int, int, int], int] = {}

    # -- the three formulas ------------------------------------------------------

    def chi_via_triple_sum(self, u: WeylElement, v: WeylElement, w: WeylElement) -> int:
        """Triple sum of CSM coefficients against triple integrals, signed
        by the intersection dimension l(w) - l(u) - l(v)."""
        self.coh._check(u, v, w)
        group, coh, csm = self.group, self.coh, self.csm
        els, lengths = group.elements, group._lengths
        top = group.num_positive
        a_u = csm.csm_schubert_cell(group.w0_times(u)).coeffs
        a_v = csm.csm_schubert_cell(group.w0_times(v)).coeffs
        a_w = csm.csm_schubert_cell(w).coeffs
        by_len_w: dict[int, list[tuple[WeylElement, int]]] = {}
        for w1, c in a_w.items():
            by_len_w.setdefault(lengths[w1], []).append((els[w1], c))
        total = 0
        for u1, cu in a_u.items():
            sign = parity_sign(u.length - lengths[u1])
            for v1, cv in a_v.items():
                for w1, cw in by_len_w.get(top - lengths[u1] - lengths[v1], ()):
                    integral = coh.triple_integral(els[u1], els[v1], w1)
                    if integral:
                        total += sign * cu * cv * cw * integral
        return parity_sign(w.length - u.length - v.length) * total

    def chi_via_pairing(self, u: WeylElement, v: WeylElement, w: WeylElement) -> int:
        """Integral of the Richardson class of (w0 u, v) against the Segre
        class of the cell of w."""
        self.coh._check(u, v, w)
        cls = self.rich.csm_richardson(self.group.w0_times(u), v)
        return self.coh.integrate(self.coh.cup(cls, self.csm.segre_schubert_cell(w)))

    def chi_via_richardson(self, u: WeylElement, v: WeylElement, w: WeylElement) -> int:
        """Coefficient at w0*w of the CSM-basis expansion of the Richardson
        class of (w0 u, v)."""
        self.coh._check(u, v, w)
        d = self.rich._expansion(self.group.w0_times(u), v)
        return d.get(self.group._w0[w.index], 0)

    # -- canonical value -----------------------------------------------------------

    def _should_cross_validate(self, ui: int, vi: int, wi: int) -> bool:
        if self.group.order <= FULL_CROSS_VALIDATION_MAX_ORDER:
            return True
        return (ui * 31 + vi * 17 + wi) % SAMPLED_CROSS_VALIDATION_STRIDE == 0

    def chi(self, u: WeylElement, v: WeylElement, w: WeylElement,
            cross_validate: bool | None = None) -> int:
        """The stored chi value (expansion path), cross-validated per policy."""
        key = (u.index, v.index, w.index)
        cached = self._chi.get(key)
        if cached is not None:
            return cached
        value = self.chi_via_richardson(u, v, w)
        if cross_validate is None:
            cross_validate = self._should_cross_validate(*key)
        if cross_validate:
            prov = ChiProvenance(
                self.chi_via_triple_sum(u, v, w),
                self.chi_via_pairing(u, v, w),
                value,
            )
            if not prov.agree:
                raise PathDisagreement(
                    f"chi({u}, {v}, {w}): triple-sum {prov.triple_sum}, "
                    f"pairing {prov.pairing}, expansion {prov.expansion}"
                )
        self._chi[key] = value
        return value

    def chi_provenance(self, u: WeylElement, v: WeylElement, w: WeylElement) -> ChiProvenance:
        """All three path values, unconditionally."""
        return ChiProvenance(
            self.chi_via_triple_sum(u, v, w),
            self.chi_via_pairing(u, v, w),
            self.chi_via_richardson(u, v, w),
        )

    def box_product(self, u: WeylElement, v: WeylElement) -> CohomologyClass:
        """The deformed product of two basis classes.

        Sum of chi(u, v, w) eps^w over w of length at least l(u) + l(v);
        its lowest-degree part is the cup product.
        """
        self.coh._check(u, v)
        floor = u.length + v.length
        return CohomologyClass(self.group, {
            w.index: self.chi(u, v, w) for w in self.group if w.length >= floor
        })

    def box_product_class(self, a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
        """Bilinear extension of the deformed product to arbitrary classes."""
        els = self.group.elements
        out = self.coh.zero()
        for u, cu in a.coeffs.items():
            for v, cv in b.coeffs.items():
                out = out + (cu * cv) * self.box_product(els[u], els[v])
        return out

    def associativity_status(self, max_length: int | None = None,
                             triple_budget: int = 250_000) -> tuple[int, int] | None:
        """Empirical associativity of the deformed product.

        Returns (failures, triples checked) over basis triples with all
        three lengths within the filter, or None when the filtered cube
        exceeds the budget.  Associativity is not asserted anywhere: it is
        observed and reported only.
        """
        group = self.group
        els = [w for w in group
               if max_length is None or w.length <= max_length]
        total = len(els) ** 3
        if total > triple_budget:
            return None
        failures = 0
        for u in els:
            for v in els:
                left_uv = self.box_product(u, v)
                for w in els:
                    lhs = self.box_product_class(left_uv, self.coh.schubert_class(w))
                    rhs = self.box_product_class(self.coh.schubert_class(u),
                                                 self.box_product(v, w))
                    if lhs != rhs:
                        failures += 1
        return failures, total
