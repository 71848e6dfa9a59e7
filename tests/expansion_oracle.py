"""The polynomial expansion oracle for the cup-product structure table.

Equivariant Schubert classes are kept as polynomial restrictions at every
torus fixed point (the subword sum of ``localization_oracle.subword_row``
with the roots left as linear forms).  A product of two classes is
expanded in the equivariant basis by exact division, and setting every
root to zero gives the structure constants, with no evaluation point: an
independent re-derivation of the table localization evaluates.  It is
compared with that table in the tests only.
"""

from __future__ import annotations

from dataclasses import dataclass

from csmverify.cohomology import FlagCohomology
from csmverify.errors import InternalInvariantError
from csmverify.rootdata import WeylElement, WeylGroup

from localization_oracle import subword_row
from polynomial import InexactDivision, IntPolynomial


@dataclass
class EquivariantClass:
    """Restrictions of an equivariant class at all torus fixed points."""

    group: WeylGroup
    restrictions: dict[WeylElement, IntPolynomial]

    def restriction(self, w: WeylElement) -> IntPolynomial:
        return self.restrictions.get(w, IntPolynomial.zero(self.group.rank))

    def pointwise_product(self, other: "EquivariantClass") -> "EquivariantClass":
        out = {}
        for w, p in self.restrictions.items():
            q = other.restrictions.get(w)
            if q is not None and p and q:
                r = p * q
                if r:
                    out[w] = r
        return EquivariantClass(self.group, out)

    def check_gkm(self) -> bool:
        """Divisibility across every reflection edge of the moment graph.

        The edge through the fixed point w in the direction of a positive
        root beta joins w to the product (reflection in beta) * w, and the
        two restrictions must agree modulo beta.
        """
        group = self.group
        for w in group:
            pw = self.restriction(w)
            for beta in group.positive_roots:
                t = group.multiply(group.reflection(beta), w)
                if t.index < w.index:
                    continue
                diff = pw - self.restriction(t)
                if diff and not diff.divisible_by_linear(beta.coords):
                    return False
        return True


class ExpansionOracle:
    """The polynomial (expansion) route on one engine's group."""

    def __init__(self, coh: FlagCohomology):
        self.coh = coh
        self.group = coh.group
        self._billey_poly: dict[int, dict[int, IntPolynomial]] = {}

    def _billey_poly_row(self, x_idx: int) -> dict[int, IntPolynomial]:
        """Restrictions of every basis class at one fixed point, as polynomials."""
        row = self._billey_poly.get(x_idx)
        if row is None:
            row = self._billey_poly[x_idx] = subword_row(
                self.group, x_idx, IntPolynomial.linear,
                IntPolynomial.constant(self.group.rank, 1))
        return row

    def billey_restriction(self, w: WeylElement, v: WeylElement) -> IntPolynomial:
        """Restriction of the equivariant class of w at the fixed point v.

        Subword sum over the canonical reduced word of v; nonnegative
        coefficients, zero iff w is not below v.
        """
        self.coh._check(w, v)
        row = self._billey_poly_row(v.index)
        return row.get(w.index, IntPolynomial.zero(self.group.rank))

    def equivariant_schubert_class(self, w: WeylElement) -> EquivariantClass:
        self.coh._check(w)
        out = {}
        for x in self.group.elements:
            p = self._billey_poly_row(x.index).get(w.index)
            if p:
                out[x] = p
        return EquivariantClass(self.group, out)

    def expand_equivariant(self, f: EquivariantClass) -> dict[WeylElement, IntPolynomial]:
        """Coefficients g_w with f = sum g_w . xi^w, by induction on length.

        At each step the minimal-length support element v contributes
        g_v = f(v) / (product of v's reflection-ordering roots); the
        division must be exact, otherwise the input violates the GKM
        condition and InexactDivision is raised.
        """
        group = self.group
        rem: dict[int, IntPolynomial] = {
            w.index: p for w, p in f.restrictions.items() if p
        }
        out: dict[WeylElement, IntPolynomial] = {}
        steps = 0
        while rem:
            steps += 1
            if steps > group.order:
                raise InexactDivision("expansion did not terminate on the group")
            v_idx = min(rem, key=lambda i: (group._lengths[i], group._words[i]))
            g = rem[v_idx]
            word = group._words[v_idx]
            pref = 0
            for i in word:
                g = g.divide_exact_linear(group._actions[pref][i - 1])
                pref = group._right[pref][i - 1]
            out[group.elements[v_idx]] = g
            for x_idx in list(rem):
                s = self._billey_poly_row(x_idx).get(v_idx)
                if s is None:
                    continue
                new = rem[x_idx] - g * s
                if new:
                    rem[x_idx] = new
                else:
                    del rem[x_idx]
        return out

    def structure_constants_via_expansion(self, u: WeylElement, v: WeylElement) -> dict[int, int]:
        """Expand the pointwise product, then set all roots to 0; the
        constants come out by element index."""
        self.coh._check(u, v)
        f = self.equivariant_schubert_class(u).pointwise_product(
            self.equivariant_schubert_class(v)
        )
        target = u.length + v.length
        out = {}
        for w, g in self.expand_equivariant(f).items():
            c = g.constant_term()
            if c == 0:
                continue
            if w.length != target:
                raise InternalInvariantError(
                    "expansion has a constant term away from the product degree"
                )
            out[w.index] = c
        return out
