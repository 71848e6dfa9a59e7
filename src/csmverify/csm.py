"""CSM classes of Schubert cells via the operator recursion.

The cell classes are generated from the point class by the involutive
operators T_i = A_i - s_i, where A_i is the homological BGG operator and
s_i the coinvariant Weyl action; T_i is one pass over the class, and the
theorem checks compare it with A_i and s_i through their relations.  The
letters of a reduced word are applied
first to last, building the element by right multiplication; the CSM
export records this order.  Every cell class is checked against its
positivity, support and normalization invariants as it is built, and the
transposed order already fails them in A2 at s1 s2, so a wrong order
cannot pass silently.

Also here: the total Chern class of the tangent bundle, its inverse via
the nilpotent geometric series, the Segre classes of the cells, the sign
involution, and opposite-cell classes via translation by the longest
element.  c(T) multiplies one way only, as the product over positive roots
beta of the degree-2 factors 1 + c1(L_beta), each one pass of the
Chevalley rule over a dense integer vector, with no structure table.  The
Segre class of a cell, c(T)^-1 . csm(cell u), is built as the sign twist
of its CSM class (AMSS, arXiv:1709.08697) and checked as
c(T) . seg = csm(cell u), a batch of classes packed into signed slots of
one int per element (Kronecker substitution; D. Harvey, J. Symbolic
Comput. 44, 2009); c(T) is invertible, so this is the same identity, and
only the ``chern-inverse`` check of theorem-invariants computes the inverse.

The cell table is also indexed by column (``cell_columns``), for the
columns up to a given length, which is what the triple sums read; the
duality between CSM and Segre cell classes that conjC's read rests on is
checked through that index, packed the same way (``segre_duality``).
"""

from __future__ import annotations

from .cohomology import CohomologyClass, FlagCohomology, _pack, _slot_bits
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
        self._factors: tuple[list, int] | None = None
        self._segre_cells: dict[int, CohomologyClass] = {}
        self._cell_columns: tuple[int, list] | None = None
        #: the widest reach at which ``segre_duality`` was asked, None before
        self.dual_reach: int | None = None

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
        """T_i = A_i - s_i; squares to the identity and satisfies braid.  One
        pass over the class: T_i eps^w = -eps^w, plus eps^t + alpha_i . eps^t
        when t = w s_i is shorter."""
        self.coh._check(a)
        self.group.check_letter(i)
        right, lengths = self.group._right, self.group._lengths
        alpha = self.coh._alpha_row(i - 1)
        out: dict[int, int] = {}
        for w, c in a.coeffs.items():
            out[w] = out.get(w, 0) - c
            t = right[w][i - 1]
            if lengths[t] < lengths[w]:
                out[t] = out.get(t, 0) + c
                for z, m in alpha[t].items():
                    out[z] = out.get(z, 0) + c * m
        return CohomologyClass(self.group, out)

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

    def _root_factors(self) -> tuple[list, int]:
        """The factors 1 + c1(L_beta) of c(T), one per positive root beta, as
        the nonzero columns (y, {t: m}) of c1(L_beta) by the Chevalley rule,
        y in decreasing length; and B, the product of 1 plus the largest
        column L1 norm of each, which bounds the L1 operator norm of c(T)."""
        if self._factors is None:
            coh, bound, factors = self.coh, 1, []
            for beta in self.group._root_coords:
                pairings = coh._pairings(beta)
                cols = [(y, col) for y in reversed(range(self.group.order))
                        if (col := coh._chevalley_idx(pairings, y))]
                bound *= 1 + max((sum(map(abs, col.values())) for _, col in cols), default=0)
                factors.append(cols)
            self._factors = factors, bound
        return self._factors

    def _times_tangent(self, vec: list[int]) -> list[int]:
        """c(T) . vec in place, vec a class by element index or classes
        packed into one int per element: each root factor is one pass over
        its covers y -> t, l(t) = l(y) + 1, in decreasing length, so every
        vec[y] is read before the pass adds to it."""
        for factor in self._root_factors()[0]:
            for y, col in factor:
                c = vec[y]
                if c:
                    for t, m in col.items():
                        vec[t] += m * c
        return vec

    def _dense(self, coeffs: dict[int, int]) -> list[int]:
        vec = [0] * self.group.order
        for w, c in coeffs.items():
            vec[w] = c
        return vec

    def tangent_chern(self) -> CohomologyClass:
        """Total Chern class of the tangent bundle: the product over positive
        roots of (1 + c1(L_root)), applied to the unit."""
        if self._tangent is None:
            tangent = self._times_tangent(self._dense({0: 1}))
            self._tangent = CohomologyClass(self.group, dict(enumerate(tangent)))
        return self._tangent

    def chern_inverse(self) -> CohomologyClass:
        """Inverse of the total Chern class via the geometric series of its
        nilpotent part c(T) - 1, exact after dim-many terms, each multiplied
        by the root factors."""
        if self._tangent_inverse is None:
            unit = self._dense({0: 1})
            inv, term = list(unit), unit
            for _ in range(self.group.num_positive):
                term = [a - b for a, b in zip(term, self._times_tangent(list(term)))]
                if not any(term):
                    break
                inv = [a + b for a, b in zip(inv, term)]
            if self._times_tangent(list(inv)) != unit:
                raise InternalInvariantError("Chern class inverse failed")
            self._tangent_inverse = CohomologyClass(self.group, dict(enumerate(inv)))
        return self._tangent_inverse

    def segre_cells(self, indices) -> None:
        """Build and keep the Segre classes of the cells of the given element
        indices, each the sign twist of its CSM class, checked in one pass as
        c(T) . seg = csm(cell u): the j-th twist fills a signed k-bit slot of
        one int per element, P[y] = sum_j seg_j[y] 2^(k j), and c(T) . P is
        compared with the CSM classes packed the same way.  Each slot of the
        difference is at most (B + 1) l1, B from ``_root_factors`` and l1 the
        largest L1 norm of a class of the batch, faulty or not, so with
        k = ``_slot_bits(l1, B)`` the sides are equal exactly when every
        class passes.  Else each class is checked alone: those that pass are
        kept, and the first that fails raises."""
        group = self.group
        todo = [u for u in dict.fromkeys(indices) if u not in self._segre_cells]
        if not todo:
            return
        lengths, w0 = group._lengths, group._w0
        cells = [self._cell_idx(u).coeffs for u in todo]
        twists = [{w: parity_sign(lengths[w] - lengths[w0[u]]) * c for w, c in cell.items()}
                  for u, cell in zip(todo, cells)]
        k = _slot_bits(max(sum(map(abs, c.values())) for c in (*cells, *twists)),
                       self._root_factors()[1])
        whole = (self._times_tangent(_pack(twists, k, group.order))
                 == _pack(cells, k, group.order))
        failed = []
        for u, seg, cell in zip(todo, twists, cells):
            if whole or self._times_tangent(self._dense(seg)) == self._dense(cell):
                self._segre_cells[u] = CohomologyClass(group, seg)
            else:
                failed.append(u)
        if failed:
            raise InternalInvariantError(f"Segre class of cell {group.elements[failed[0]]} "
                                         "does not match the sign-twisted CSM class")

    def segre_schubert_cell(self, u: WeylElement) -> CohomologyClass:
        """Segre class of a Schubert cell: the sign twist of its CSM class
        (alternating signs relative to the leading term), checked by
        ``segre_cells`` as a batch of one."""
        self.coh._check(u)
        self.segre_cells((u.index,))
        return self._segre_cells[u.index]

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

    def cell_columns(self, reach: int | None = None) -> list[tuple[tuple[int, ...], ...]]:
        """The CSM cell table by column, for the columns x of length at most
        reach (N by default): entry x is the pair of tuples (ws, cs), the w
        ascending and the c, for every nonzero coefficient c at eps^x of
        csm(cell w), read as zip(ws, cs) (two tuples take a quarter of the
        memory of one pair per entry); a longer column is empty unless a
        wider index was built before.  csm(cell w) lives on the x with
        w0*x <= w, so only the cells of length at least N - reach fill these
        columns.  The widest index built is kept."""
        group = self.group
        top = group.num_positive
        reach = top if reach is None else min(reach, top)
        if self._cell_columns is None or self._cell_columns[0] < reach:
            lengths = group._lengths
            ws: list[list[int]] = [[] for _ in range(group.order)]
            cs: list[list[int]] = [[] for _ in range(group.order)]
            for w in range(group.order):
                if lengths[w] >= top - reach:
                    for x, c in self._cell_idx(w).coeffs.items():
                        if lengths[x] <= reach:
                            ws[x].append(w)
                            cs[x].append(c)
            self._cell_columns = reach, [(tuple(a), tuple(b)) for a, b in zip(ws, cs)]
        return self._cell_columns[1]

    def segre_duality(self, reach: int | None = None) -> None:
        """Check AMSS duality, the integral of csm(cell x) . seg(cell w0*z) is
        1 if x = z and 0 otherwise, for x and z of length at most reach (N by
        default), through the column index the duality read of
        ``RichardsonCalculator.csm_basis_coeffs`` uses.  That read pairs a
        class with every seg(cell w0*z) at once, as the sum over its terms y
        of (-1)^(l(w0 y) - l(z)) times the entries (w0*z, c) of the column
        at w0*y; applied to csm(cell x) it must give 1 at z = x and 0
        elsewhere.  Packed like ``segre_cells``: Q[t], for each column t of
        length at most reach, holds (-1)^(N - l(w)) c in a signed k-bit
        slot for each of its entries (w, c), one slot per cell w the
        columns name, and sum_y (-1)^(l(w0 y)) csm(cell x)[y] Q[w0*y] must
        be the single 1 in the slot of w0*x.  Each slot of the difference
        is at most l1 big + 1, l1 the largest L1 norm of those cell classes
        and big the largest entry of those columns, faulty or not, so
        k = ``_slot_bits(l1, big)`` keeps it exact.  The cells of length at
        most reach are a unitriangular basis of the classes whose terms y
        all have l(w0*y) <= reach, so on such a class the read is the
        CSM-basis expansion.  Records reach for that read before checking;
        a failure raises InternalInvariantError naming the first cell x."""
        group = self.group
        top, lengths, w0 = group.num_positive, group._lengths, group._w0
        reach = top if reach is None else min(reach, top)
        self.dual_reach = max(self.dual_reach or 0, reach)
        columns = self.cell_columns(reach)
        ts = [t for t in range(group.order) if lengths[t] <= reach]
        slot = {w: j for j, w in enumerate(sorted({w for t in ts for w in columns[t][0]}))}
        cells = [self._cell_idx(x).coeffs for x in ts]
        k = _slot_bits(max(sum(map(abs, cell.values())) for cell in cells),
                       max((abs(c) for t in ts for c in columns[t][1]), default=0))
        packed = [0] * group.order
        for t in ts:
            packed[t] = sum(parity_sign(top - lengths[w]) * c << k * slot[w]
                            for w, c in zip(*columns[t]))
        for x, cell in zip(ts, cells):
            got = sum(parity_sign(lengths[w0[y]]) * c * packed[w0[y]] for y, c in cell.items())
            if w0[x] not in slot or got != 1 << k * slot[w0[x]]:
                raise InternalInvariantError(
                    f"CSM and Segre cell classes break AMSS duality at the cell of "
                    f"{group.elements[x]}")
