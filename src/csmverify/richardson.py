"""CSM classes of Richardson cells and their coefficient expansions.

A Richardson cell is the intersection of a Schubert cell with an opposite
one; its CSM class is the cup product of the Segre class of the first with
the CSM class of the second.  The same class has a mirror expression with
the roles of the two factors swapped, and the two must agree exactly; that
equality is enforced on every computation.

The left factor depends only on the row u, so the products of a row go
through two multipliers (see ``cohomology.Multiplier``): L_u, times
seg(cell u), for the class and the twisted Segre product, and M_u, times
csm(cell u), for the mirror product.  Their columns fill on first use and
are reused across the row.  A row's record holds them and the classes
and expansions of its pairs; only one row is held, the row of the current
sweep unit, so memory grows with |W|, not with the pairs a run visits.

Proved facts are hard assertions here: the parity constraint on the
coefficients against the Schubert-variety basis, and the sign condition on
the twisted Segre expansion.  The nonnegativity of the coefficients and
the alternating-sign pattern of the CSM-basis expansion are open
statements: they are recorded on the result, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import CohomologyClass, Multiplier
from .csm import CsmCalculator
from .errors import LemmaViolation, MirrorMismatch, ParityViolation, SingularSystem
from .rootdata import WeylElement, parity_sign


@dataclass
class Coefficients:
    """Coefficients of a Richardson class by the index of w, and the
    (index of w, coefficient) entries that break the sign conjecture on
    them, in index order; the conjecture holds for the pair iff there are
    none."""

    coeffs: dict[int, int]
    violations: list[tuple[int, int]]


class RichardsonCalculator:
    """Richardson-cell classes and expansions for one group."""

    def __init__(self, csm: CsmCalculator):
        self.csm = csm
        self.coh = csm.coh
        self.group = csm.group
        self._rows: dict[int, tuple] = {}

    def _row(self, ui: int) -> tuple[Multiplier, Multiplier, dict, dict]:
        """Row u's record (L_u, M_u, classes by v, expansions by v).  Only one
        is held: asking for another row drops it."""
        rec = self._rows.get(ui)
        if rec is None:
            self._rows.clear()
            u = self.group.elements[ui]
            rec = self._rows[ui] = (Multiplier(self.coh, self.csm.segre_schubert_cell(u)),
                                    Multiplier(self.coh, self.csm.csm_schubert_cell(u)), {}, {})
        return rec

    def csm_richardson(self, u: WeylElement, v: WeylElement) -> CohomologyClass:
        """CSM class of the Richardson cell of (u, v).

        Computed as segre(cell u) . csm(opposite cell v) by the row
        operator L_u and cross-checked against the mirror product
        csm(cell u) . segre(opposite cell v) by M_u; disagreement raises
        MirrorMismatch.  If v is not below u the cell is empty and the
        product vanishes of its own accord.
        """
        self.coh._check(u, v)
        times_seg, times_csm, classes, _ = self._row(u.index)
        out = classes.get(v.index)
        if out is not None:
            return out
        csm = self.csm
        out = times_seg(csm.csm_opposite_cell(v))
        mirror = times_csm(csm.segre_opposite_cell(v))
        if out != mirror:
            raise MirrorMismatch(
                f"mirror product mismatch for Richardson cell ({u}, {v})"
            )
        classes[v.index] = out
        return out

    def richardson_coeffs(self, u: WeylElement, v: WeylElement) -> Coefficients:
        """Read the coefficients c_w against [X_w] = eps^{w0 w}.

        Parity (coefficients vanish unless l(w)+l(u)+l(v) is even) is a
        proved constraint: a violation raises ParityViolation.  A negative
        coefficient is a reportable finding, recorded in ``violations``.
        """
        cls = self.csm_richardson(u, v)
        group = self.group
        c: dict[int, int] = {}
        for eps_label, val in cls.coeffs.items():
            w = group._w0[eps_label]
            if (group._lengths[w] + u.length + v.length) % 2 != 0:
                raise ParityViolation(f"odd-parity coefficient in Richardson cell ({u}, {v})")
            c[w] = val
        return Coefficients(c, sorted((w, val) for w, val in c.items() if val < 0))

    def expand_in_csm_basis(self, a: CohomologyClass) -> dict[int, int]:
        """Solve a = sum d_w . csm(cell w) by the unitriangular peel.

        The cell class of w has leading term 1 at w0*w and support above
        it, so repeatedly stripping the minimal surviving term is an exact
        integer solve; the residual is re-checked to be zero.  Returns
        the coefficients d_w by the index of w.
        """
        self.coh._check(a)
        group, cell_of = self.group, self.csm._cell_idx
        rem = dict(a.coeffs)
        d: dict[int, int] = {}
        cells: dict[int, dict[int, int]] = {}
        steps = 0
        while rem:
            steps += 1
            if steps > group.order:
                raise SingularSystem("CSM-basis expansion did not terminate")
            theta = min(rem)
            u = group._w0[theta]
            coeff = rem[theta]
            d[u] = coeff
            cell = cells[u] = cell_of(u).coeffs
            for w, c in cell.items():
                val = rem.get(w, 0) - coeff * c
                if val:
                    rem[w] = val
                else:
                    rem.pop(w, None)
        # back-substitution residual of d itself, summed in one dict, must
        # vanish; a cell class off the unitriangular shape fails here
        total: dict[int, int] = {}
        for u, coeff in d.items():
            for w, c in cells[u].items():
                total[w] = total.get(w, 0) + coeff * c
        if CohomologyClass(group, total) != a:
            raise SingularSystem("CSM-basis expansion residual is nonzero")
        return d

    def csm_basis_coeffs(self, u: WeylElement, v: WeylElement) -> Coefficients:
        """Expansion of a Richardson class, with the entries that break the
        alternating-sign pattern (-1)^(l(w)-l(u)-l(v)) d_w >= 0."""
        self.coh._check(u, v)
        d = self._expansion(u, v)
        group = self.group
        base = u.length + v.length
        violations = [(w, val) for w, val in sorted(d.items())
                      if parity_sign(group._lengths[w] - base) * val < 0]
        return Coefficients(dict(d), violations)

    def _expansion(self, u: WeylElement, v: WeylElement) -> dict[int, int]:
        expansions = self._row(u.index)[3]
        d = expansions.get(v.index)
        if d is None:
            d = expansions[v.index] = self.expand_in_csm_basis(self.csm_richardson(u, v))
        return d

    def verify_lemma_e(self, u: WeylElement, v: WeylElement) -> dict[int, int]:
        """Twisted Segre expansion of the Richardson cell, by element index.

        Computes the sign involution of segre(cell u) . segre(opposite v),
        the product by the row operator L_u, and checks the proved sign
        condition (-1)^(l(w0 u) + l(v)) e_w >= 0; a violation raises
        LemmaViolation.
        """
        self.coh._check(u, v)
        seg = self._row(u.index)[0](self.csm.segre_opposite_cell(v))
        twisted = self.csm.phi_involution(seg)
        sign = parity_sign(self.group.w0_times(u).length + v.length)
        for w, val in twisted.coeffs.items():
            if sign * val < 0:
                raise LemmaViolation(
                    f"twisted Segre sign condition fails at ({u}, {v}), "
                    f"term {self.group.elements[w]}"
                )
        return twisted.coeffs
