"""CSM classes of Schubert cells via the operator recursion.

The cell classes are generated from the point class by the involutive
operators T_i = A_i - s_i, where A_i is the homological BGG operator and
s_i the coinvariant Weyl action.  The letters of a reduced word are applied
first to last, building the element by right multiplication; the CSM
export records this order.  Every cell class is checked against its
positivity, support and normalization invariants as it is built, and the
transposed order already fails them in A2 at s1 s2, so a wrong order
cannot pass silently.

Also here: the total Chern class of the tangent bundle (a product of
degree-2 factors over the positive roots, so it needs only the Chevalley
rule), its inverse via the nilpotent geometric series, the Segre classes
of the cells, the sign involution, and opposite-cell classes via
translation by the longest element.  The Segre class of a cell,
c(T)^-1 . csm(cell u), is built as the sign twist of its CSM class (AMSS,
arXiv:1709.08697) and checked as c(T) . seg = csm(cell u), through one
multiplier of c(T) for every class, whose columns the inverse's series
reuses; c(T) is invertible, so this is the same identity, and only the
``chern-inverse`` check of theorem-invariants computes the inverse.
"""

from __future__ import annotations

from .cohomology import CohomologyClass, FlagCohomology, Multiplier
from .errors import CalibrationFailure, InternalInvariantError
from .rootdata import WeylElement, parity_sign

#: letters of a reduced word applied first-to-last while building the
#: element by right multiplication
CONVENTION = "letters-left-to-right"


class CsmCalculator:
    """CSM/Segre classes of all Schubert and opposite cells of one group."""

    def __init__(self, coh: FlagCohomology):
        self.coh = coh
        self.group = coh.group
        self._cells: dict[int, CohomologyClass] = {}
        self._tangent: CohomologyClass | None = None
        self._tangent_inverse: CohomologyClass | None = None
        self._tangent_op: Multiplier | None = None
        self._segre_cells: dict[int, CohomologyClass] = {}
        self._cell_columns: list | None = None

    # -- operators -------------------------------------------------------------

    def bgg_A(self, i: int, a: CohomologyClass) -> CohomologyClass:
        """Homological BGG operator: kills ascents, steps down descents."""
        self.coh._check(a)
        self.group.check_letter(i)
        right, lengths = self.group._right, self.group._lengths
        out: dict[int, int] = {}
        for w, c in a.coeffs.items():
            t = right[w][i - 1]
            if lengths[t] < lengths[w]:
                out[t] = c
        return CohomologyClass(self.group, out)

    def weyl_action(self, i: int, a: CohomologyClass) -> CohomologyClass:
        """Coinvariant action of the i-th simple reflection (an involution)."""
        self.coh._check(a)
        self.group.check_letter(i)
        group = self.group
        alpha = self.coh._alpha_row(i - 1)
        out: dict[int, int] = {}
        for w, c in a.coeffs.items():
            out[w] = out.get(w, 0) + c
            t = group._right[w][i - 1]
            if group._lengths[t] < group._lengths[w]:
                for z, m in alpha[t].items():
                    out[z] = out.get(z, 0) - c * m
        return CohomologyClass(group, out)

    def dl_operator(self, i: int, a: CohomologyClass) -> CohomologyClass:
        """T_i = A_i - s_i; squares to the identity and satisfies braid."""
        return self.bgg_A(i, a) - self.weyl_action(i, a)

    # -- cell classes ------------------------------------------------------------

    def csm_schubert_cell(self, u: WeylElement) -> CohomologyClass:
        """CSM class of the Schubert cell of u, in the eps basis.

        Recursion from the point class along the canonical reduced word,
        its letters applied first to last.  Each class is invariant-checked
        when it is computed; a violation raises CalibrationFailure.
        """
        self.coh._check(u)
        return self._cell_idx(u.index)

    def _cell_idx(self, idx: int) -> CohomologyClass:
        cached = self._cells.get(idx)
        if cached is not None:
            return cached
        group = self.group
        if idx == 0:
            out = self.coh.schubert_class(group.longest)
        else:  # idx = prefix * s_i
            i = group._words[idx][-1]
            out = self.dl_operator(i, self._cell_idx(group._right[idx][i - 1]))
        self._check_cell_invariants(group.elements[idx], out)
        self._cells[idx] = out
        return out

    def _check_cell_invariants(self, u: WeylElement, cls: CohomologyClass) -> None:
        """Leading and top coefficients 1, no negative coefficient, and
        support in the Schubert variety of u: w >= w0*u, asked as w0*w <= u,
        since x -> w0*x reverses the order, so only u's own interval is read."""
        group, els, w0 = self.group, self.group.elements, self.group._w0
        dual = w0[u.index]
        if cls.coeffs.get(dual) != 1:
            raise CalibrationFailure(f"cell class of {u}: leading coefficient != 1")
        if cls.coeffs.get(group.longest.index) != 1:
            raise CalibrationFailure(f"cell class of {u}: top coefficient != 1")
        for w, c in cls.coeffs.items():
            if c < 0:
                raise CalibrationFailure(f"cell class of {u}: negative coefficient at {els[w]}")
            if not group._bruhat_leq_idx(w0[w], u.index):
                raise CalibrationFailure(f"cell class of {u}: support below {els[dual]}")

    def csm_opposite_cell(self, v: WeylElement) -> CohomologyClass:
        """Opposite-cell class; translation by w0 is homotopic to the
        identity, so it equals the cell class of w0*v."""
        self.coh._check(v)
        return self.csm_schubert_cell(self.group.w0_times(v))

    # -- Chern/Segre machinery ------------------------------------------------------

    def tangent_chern(self) -> CohomologyClass:
        """Total Chern class of the tangent bundle: product over positive
        roots of (1 + c1(L_root)), computed with the Chevalley rule only."""
        if self._tangent is None:
            coh = self.coh
            cls = coh.unit()
            for beta in self.group._root_coords:
                pairings = coh._pairings(beta)
                add: dict[int, int] = {}
                for w, c in cls.coeffs.items():
                    for t, m in coh._chevalley_idx(pairings, w).items():
                        add[t] = add.get(t, 0) + c * m
                cls = cls + CohomologyClass(self.group, add)
            self._tangent = cls
        return self._tangent

    def _times_tangent(self, a: CohomologyClass) -> CohomologyClass:
        """c(T) . a, through one multiplier of the tangent Chern class kept
        for the calculator's life."""
        if self._tangent_op is None:
            self._tangent_op = Multiplier(self.coh, self.tangent_chern())
        return self._tangent_op(a)

    def chern_inverse(self) -> CohomologyClass:
        """Inverse of the total Chern class via the geometric series of its
        nilpotent part c(T) - 1, exact after dim-many terms; its products
        reuse the columns of ``_times_tangent``."""
        if self._tangent_inverse is None:
            coh = self.coh
            inv = term = coh.unit()
            for _ in range(self.group.num_positive):
                term = term - self._times_tangent(term)      # -(c(T) - 1) . term
                if not term:
                    break
                inv = inv + term
            if self._times_tangent(inv) != coh.unit():
                raise InternalInvariantError("Chern class inverse failed")
            self._tangent_inverse = inv
        return self._tangent_inverse

    def segre_schubert_cell(self, u: WeylElement) -> CohomologyClass:
        """Segre class of a Schubert cell: the sign twist of its CSM class
        (alternating signs relative to the leading term), with
        c(T) . seg = csm(cell u) enforced through ``_times_tangent``."""
        self.coh._check(u)
        cached = self._segre_cells.get(u.index)
        if cached is not None:
            return cached
        cls = self.csm_schubert_cell(u)
        base = self.group.w0_times(u).length
        seg = CohomologyClass(self.group, {
            w: parity_sign(self.group._lengths[w] - base) * c for w, c in cls.coeffs.items()
        })
        if self._times_tangent(seg) != cls:
            raise InternalInvariantError(
                f"Segre class of cell {u} does not match the sign-twisted CSM class"
            )
        self._segre_cells[u.index] = seg
        return seg

    def segre_opposite_cell(self, v: WeylElement) -> CohomologyClass:
        return self.segre_schubert_cell(self.group.w0_times(v))

    def phi_involution(self, a: CohomologyClass) -> CohomologyClass:
        """Sign involution: (-1)^degree on each graded piece; a ring map."""
        self.coh._check(a)
        return CohomologyClass(self.group, {
            w: parity_sign(self.group._lengths[w]) * c for w, c in a.coeffs.items()
        })

    def completeness_check(self) -> bool:
        """Sum of all cell classes equals the total tangent Chern class."""
        total = self.coh.zero()
        for u in self.group:
            total = total + self.csm_schubert_cell(u)
        return total == self.tangent_chern()

    # -- table --------------------------------------------------------------------------

    def build_table(self) -> None:
        """Compute and invariant-check the cell class of every element."""
        for u in self.group:
            self.csm_schubert_cell(u)

    def cell_columns(self) -> list[tuple[tuple[int, int], ...]]:
        """The CSM cell table by column: entry x lists (w, c) for every
        nonzero coefficient c at eps^x of csm(cell w), w ascending."""
        if self._cell_columns is None:
            columns: list[list[tuple[int, int]]] = [[] for _ in range(self.group.order)]
            for u in self.group:
                for x, c in self.csm_schubert_cell(u).coeffs.items():
                    columns[x].append((u.index, c))
            self._cell_columns = [tuple(col) for col in columns]
        return self._cell_columns
