"""CSM classes of Richardson cells and their coefficient expansions.

A Richardson cell is the intersection of a Schubert cell with an opposite
one; its CSM class is the cup product of the Segre class of the first with
the CSM class of the second.  The same class has a mirror expression with
the roles of the two factors swapped, and the two must agree exactly; that
equality is enforced on every computation.

Proved facts are hard assertions here: the parity constraint on the
coefficients against the Schubert-variety basis, and the sign condition on
the twisted Segre expansion.  The nonnegativity of the coefficients and
the alternating-sign pattern of the CSM-basis expansion are open
statements: they are recorded on the result objects, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cohomology import CohomologyClass
from .csm import CsmCalculator
from .errors import LemmaViolation, MirrorMismatch, ParityViolation, SingularSystem
from .rootdata import WeylElement, WeylGroup, parity_sign


@dataclass
class RichardsonCoefficients:
    """Coefficients c_w of a Richardson-cell class against [X_w]."""

    u: WeylElement
    v: WeylElement
    c: dict[WeylElement, int]
    parity_ok: bool
    nonneg_ok: bool

    def witnesses(self) -> list[tuple[WeylElement, int]]:
        """Negative entries, in canonical order."""
        return sorted(
            ((w, val) for w, val in self.c.items() if val < 0),
            key=lambda wv: wv[0].index,
        )


@dataclass
class CsmBasisCoefficients:
    """Coefficients d_w of a class against the CSM cell-class basis.

    ``coeffs`` holds them by element index and ``d`` by element.
    ``sign_ok`` is the alternating-sign verdict relative to a Richardson
    pair (u, v), and ``violations`` lists the (w, d_w) that break it in
    canonical order; both are unset for expansions without that context.
    """

    group: WeylGroup
    coeffs: dict[int, int]
    sign_ok: bool | None = None
    violations: list[tuple[WeylElement, int]] = field(default_factory=list)

    @property
    def d(self) -> dict[WeylElement, int]:
        els = self.group.elements
        return {els[w]: c for w, c in self.coeffs.items()}


class RichardsonCalculator:
    """Richardson-cell classes and expansions for one group."""

    def __init__(self, csm: CsmCalculator):
        self.csm = csm
        self.coh = csm.coh
        self.group = csm.group
        self._cells: dict[tuple[int, int], CohomologyClass] = {}
        self._expansions: dict[tuple[int, int], dict[int, int]] = {}

    def csm_richardson(self, u: WeylElement, v: WeylElement) -> CohomologyClass:
        """CSM class of the Richardson cell of (u, v).

        Computed as segre(cell u) . csm(opposite cell v) and cross-checked
        against the mirror product csm(cell u) . segre(opposite cell v);
        disagreement raises MirrorMismatch.  If v is not below u the cell
        is empty and the product vanishes of its own accord.
        """
        self.coh._check(u, v)
        key = (u.index, v.index)
        cached = self._cells.get(key)
        if cached is not None:
            return cached
        csm, coh = self.csm, self.coh
        out = coh.cup(csm.segre_schubert_cell(u), csm.csm_opposite_cell(v))
        mirror = coh.cup(csm.csm_schubert_cell(u), csm.segre_opposite_cell(v))
        if out != mirror:
            raise MirrorMismatch(
                f"mirror product mismatch for Richardson cell ({u}, {v})"
            )
        self._cells[key] = out
        return out

    def richardson_coeffs(self, u: WeylElement, v: WeylElement) -> RichardsonCoefficients:
        """Read the coefficients against [X_w] = eps^{w0 w}.

        Parity (coefficients vanish unless l(w)+l(u)+l(v) is even) is a
        proved constraint: a violation raises ParityViolation.  A negative
        coefficient is a reportable finding, recorded in ``nonneg_ok``.
        """
        cls = self.csm_richardson(u, v)
        group = self.group
        c: dict[WeylElement, int] = {}
        parity_ok = True
        for eps_label, val in cls.coeffs.items():
            w = group._w0[eps_label]
            c[group.elements[w]] = val
            if (group._lengths[w] + u.length + v.length) % 2 != 0:
                parity_ok = False
        nonneg_ok = all(val >= 0 for val in c.values())
        result = RichardsonCoefficients(u, v, c, parity_ok, nonneg_ok)
        if not parity_ok:
            raise ParityViolation(
                f"odd-parity coefficient in Richardson cell ({u}, {v})"
            )
        return result

    def expand_in_csm_basis(self, a: CohomologyClass) -> CsmBasisCoefficients:
        """Solve a = sum d_w . csm(cell w) by the unitriangular peel.

        The cell class of w has leading term 1 at w0*w and support above
        it, so repeatedly stripping the minimal surviving term is an exact
        integer solve; the residual is re-checked to be zero.
        """
        group = self.group
        els = group.elements
        rem = dict(a.coeffs)
        d: dict[int, int] = {}
        steps = 0
        while rem:
            steps += 1
            if steps > group.order:
                raise SingularSystem("CSM-basis expansion did not terminate")
            theta = min(rem)
            u = group._w0[theta]
            coeff = rem[theta]
            d[u] = coeff
            for w, c in self.csm.csm_schubert_cell(els[u]).coeffs.items():
                val = rem.get(w, 0) - coeff * c
                if val:
                    rem[w] = val
                else:
                    rem.pop(w, None)
        # back-substitution residual must vanish
        total = self.coh.zero()
        for u, coeff in d.items():
            total = total + coeff * self.csm.csm_schubert_cell(els[u])
        if total != a:
            raise SingularSystem("CSM-basis expansion residual is nonzero")
        return CsmBasisCoefficients(group, d)

    def csm_basis_coeffs(self, u: WeylElement, v: WeylElement) -> CsmBasisCoefficients:
        """Expansion of a Richardson class, with the alternating-sign
        verdict (-1)^(l(w)-l(u)-l(v)) d_w >= 0 and its violations filled in."""
        d = self._expansion(u, v)
        group = self.group
        base = u.length + v.length
        violations = [(group.elements[w], val) for w, val in sorted(d.items())
                      if parity_sign(group._lengths[w] - base) * val < 0]
        return CsmBasisCoefficients(group, dict(d), not violations, violations)

    def _expansion(self, u: WeylElement, v: WeylElement) -> dict[int, int]:
        key = (u.index, v.index)
        cached = self._expansions.get(key)
        if cached is None:
            cached = self.expand_in_csm_basis(self.csm_richardson(u, v)).coeffs
            self._expansions[key] = cached
        return cached

    def verify_lemma_e(self, u: WeylElement, v: WeylElement) -> dict[WeylElement, int]:
        """Twisted Segre expansion of the Richardson cell.

        Computes the sign involution of segre(cell u) . segre(opposite v)
        and checks the proved sign condition
        (-1)^(l(w0 u) + l(v)) e_w >= 0; a violation raises LemmaViolation.
        """
        self.coh._check(u, v)
        seg = self.coh.cup(
            self.csm.segre_schubert_cell(u), self.csm.segre_opposite_cell(v)
        )
        twisted = self.csm.phi_involution(seg)
        sign = parity_sign(self.group.w0_times(u).length + v.length)
        for w, val in twisted.coeffs.items():
            if sign * val < 0:
                raise LemmaViolation(
                    f"twisted Segre sign condition fails at ({u}, {v}), "
                    f"term {self.group.elements[w]}"
                )
        return dict(twisted.items())
