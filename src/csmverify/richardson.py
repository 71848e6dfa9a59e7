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
are reused across the row.  A row's record holds them and the classes,
peeled expansions and triple sums of its pairs; only one row is held, the
row of the current sweep unit, so memory grows with |W|, not with the
pairs a run visits.

A class has two CSM-basis expansions.  ``csm_basis_coeffs``, which conjC
reads, takes it by AMSS duality (Aluffi, Mihalcea, Schuermann and Su,
arXiv:1709.08697), the integral of csm(cell x) . seg(cell w0*z) being 1
if x = z and 0 otherwise: the coefficient of csm(cell x) is a signed
entry of the class's triple sum, the sum that the chi rows' triple-sum
path reads too, so each class is summed once.  ``expand_in_csm_basis``,
the unitriangular peel, stays the independent path of the chi rows'
expansion and of the cell classes' own expansions.

Proved facts are hard assertions here: the parity constraint on the
coefficients against the Schubert-variety basis, checked where the class is
made, before the row keeps it, so every class the row holds has it; the
length bound of the duality check, at each duality read; and the sign
condition on the twisted Segre expansion.  The nonnegativity of the
coefficients and the alternating-sign pattern of the CSM-basis expansion
are open statements: they are recorded on the result, never raised.
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

    def _row(self, ui: int) -> tuple[Multiplier, Multiplier, dict, dict, dict]:
        """Row u's record (L_u, M_u, classes by v, expansions by v, triple
        sums by v).  Only one is held: asking for another row drops it."""
        rec = self._rows.get(ui)
        if rec is None:
            self._rows.clear()
            u = self.group.elements[ui]
            rec = self._rows[ui] = (Multiplier(self.coh, self.csm.segre_schubert_cell(u)),
                                    Multiplier(self.coh, self.csm.csm_schubert_cell(u)),
                                    {}, {}, {})
        return rec

    def csm_richardson(self, u: WeylElement, v: WeylElement) -> CohomologyClass:
        """CSM class of the Richardson cell of (u, v).

        Computed as segre(cell u) . csm(opposite cell v) by the row
        operator L_u and cross-checked against the mirror product
        csm(cell u) . segre(opposite cell v) by M_u; disagreement raises
        MirrorMismatch.  Its coefficient c_w against [X_w] = eps^{w0 w}
        vanishes unless l(w) + l(u) + l(v) is even, a proved constraint: a
        term that breaks it raises ParityViolation.  Only a class that
        passes both enters the row.  If v is not below u the cell is empty
        and the product vanishes of its own accord.
        """
        self.coh._check(u, v)
        times_seg, times_csm, classes, _, _ = self._row(u.index)
        out = classes.get(v.index)
        if out is not None:
            return out
        csm, lengths, w0 = self.csm, self.group._lengths, self.group._w0
        out = times_seg(csm.csm_opposite_cell(v))
        mirror = times_csm(csm.segre_opposite_cell(v))
        if out != mirror:
            raise MirrorMismatch(
                f"mirror product mismatch for Richardson cell ({u}, {v})"
            )
        if any((lengths[w0[y]] + u.length + v.length) & 1 for y in out.coeffs):
            raise ParityViolation(f"odd-parity coefficient in Richardson cell ({u}, {v})")
        classes[v.index] = out
        return out

    def richardson_coeffs(self, u: WeylElement, v: WeylElement) -> Coefficients:
        """Read the coefficients c_w against [X_w] = eps^{w0 w}, whose
        parity ``csm_richardson`` checks.  A negative coefficient is a
        reportable finding, recorded in ``violations``."""
        w0 = self.group._w0
        c = {w0[y]: val for y, val in self.csm_richardson(u, v).coeffs.items()}
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
        """CSM-basis expansion of a Richardson class, read by duality
        (``_dual_expansion``), with the entries that break the
        alternating-sign pattern (-1)^(l(w)-l(u)-l(v)) d_w >= 0."""
        self.coh._check(u, v)
        d = self._dual_expansion(u, v)
        lengths, base = self.group._lengths, u.length + v.length
        violations = [(w, val) for w, val in sorted(d.items())
                      if parity_sign(lengths[w] - base) * val < 0]
        return Coefficients(dict(d), violations)

    def _dual_expansion(self, u: WeylElement, v: WeylElement) -> dict[int, int]:
        """The coefficient d_x of csm(cell x) in the Richardson class R of
        (u, v), by AMSS duality the integral of R . seg(cell w0*x): by the
        Segre twist the signed triple sum of R at x (``_triple_sum``), the
        row record's dict itself.  Exact when every term y of R has the
        proved parity, which ``csm_richardson`` checks, and l(w0*y) at most
        the reach of the duality check (``CsmCalculator.segre_duality``, run
        at N first if no run has asked for it); a term beyond it raises here,
        at each read, since a chi row may have made the sum at full reach.
        R lives in the Schubert variety of u, so under a length filter its
        terms stay within it."""
        csm, group = self.csm, self.group
        if csm.dual_reach is None:
            csm.segre_duality()
        reach, lengths, w0 = csm.dual_reach, group._lengths, group._w0
        for y in self.csm_richardson(u, v).coeffs:
            if lengths[w0[y]] > reach:
                raise SingularSystem(f"Richardson cell ({u}, {v}) has a term at "
                                     f"[X_{group.elements[w0[y]]}], beyond the duality "
                                     f"check's length {reach}")
        return self._triple_sum(u, v, reach)

    def _triple_sum(self, u: WeylElement, v: WeylElement,
                    reach: int | None = None) -> dict[int, int]:
        """The triple sum of the Richardson class R of (u, v), signed and
        keyed as a CSM-basis expansion: at x, (-1)^(l(u) + l(v) - l(x)) times
        the sum over the terms y of R of R[y] c, c the coefficient at
        eps^(w0 y) of csm(cell w0*x), from the column at w0*y of
        ``CsmCalculator.cell_columns(reach)``, so every term y must have
        l(w0*y) <= reach; nonzero entries by x.  Relabelled by x -> w0*x it
        is the chi row's triple-sum row, whose dimension sign is this one.
        Kept in the row record, where conjC's read and the chi row share
        it; R is read from the row only to make it."""
        sums = self._row(u.index)[4]
        out = sums.get(v.index)
        if out is None:
            cls = self.csm_richardson(u, v).coeffs
            group, columns = self.group, self.csm.cell_columns(reach)
            w0, lengths, base = group._w0, group._lengths, u.length + v.length
            acc: dict[int, int] = {}
            for y, r in cls.items():
                for w, c in zip(*columns[w0[y]]):
                    acc[w] = acc.get(w, 0) + r * c
            out = sums[v.index] = {w0[w]: parity_sign(base - lengths[w0[w]]) * c
                                   for w, c in acc.items() if c}
        return out

    def _expansion(self, u: WeylElement, v: WeylElement) -> dict[int, int]:
        """The peeled expansion of the Richardson class of (u, v), kept in
        the row record."""
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
