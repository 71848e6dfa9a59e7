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

A sweep unit also makes every class of its row at once (``pack_cells``,
``packed_products``): the cell classes of the w0*v, v filtered, packed
along v into one int per element, one signed slot per v (Kronecker
substitution; D. Harvey, J. Symbolic Comput. 44, 2009), so the row's
operators make all of its classes, mirror products and lemma-E products
in one product each, on the pack cut to the slots the unit reads
(``PackedCells.prefix``).

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

from .cohomology import CohomologyClass, Multiplier, _pack, _slot_bits
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


@dataclass
class PackedCells:
    """The classes csm(cell w0*v) and seg(cell w0*v) of a sweep's filtered
    v, packed along v: csm[y] = sum_j csm(cell w0*v_j)[y] 2^(k j) and seg[y]
    the same from seg(cell w0*v_j), nonzero entries by element index, the
    class of v in the signed k-bit slot slot[v].  bias holds 2^(k-1) in
    every slot.  reach is the length up to which the triple sums of the
    classes read the cell columns (``CsmCalculator.dual_reach``), or None
    when the width k does not provide for them."""

    k: int
    slot: dict[int, int]
    csm: dict[int, int]
    seg: dict[int, int]
    bias: int
    reach: int | None

    def read(self, packed: int, j: int) -> int:
        """Slot j of a packed int each of whose slots is below 2^(k-1) in
        size.  With the bias added every slot holds x + 2^(k-1), in
        [0, 2^k), so no slot borrows from the next."""
        k = self.k
        return ((packed + self.bias) >> k * j & (1 << k) - 1) - (1 << k - 1)

    def unpack(self, packed: dict[int, int], vs) -> list[dict[int, int]]:
        """The slots of the v in vs of a dict of packed ints, each as the
        dict of its nonzero entries, read as ``read`` reads them."""
        k, bias = self.k, self.bias
        full, shifts = (1 << k) - 1, [k * self.slot[v] for v in vs]
        out: list[dict[int, int]] = [{} for _ in shifts]
        for y, x in packed.items():
            x += bias
            for d, shift in zip(out, shifts):
                if val := (x >> shift & full) - (1 << k - 1):
                    d[y] = val
        return out

    def prefix(self, m: int) -> PackedCells:
        """The pack cut to its first m slots.  Slot j of a packed int x,
        for j < m, is exact in the low k m bits of x + bias, since each
        slot there holds x_j + 2^(k-1), in [0, 2^k); so the cut is that,
        less the bias, and each product on the cut pack costs what m slots
        cost.  Cut to all of its slots, the pack is itself."""
        if m == len(self.slot):
            return self
        low = (1 << self.k * m) - 1
        bias = self.bias & low

        def cut(packed):
            return {y: c for y, x in packed.items() if (c := ((x & low) + bias & low) - bias)}

        return PackedCells(self.k, {v: j for v, j in self.slot.items() if j < m},
                           cut(self.csm), cut(self.seg), bias, self.reach)

    def mask(self, vs) -> int:
        """The bits of the slots of the v in vs."""
        k, full, out = self.k, (1 << self.k) - 1, 0
        for v in vs:
            out |= full << k * self.slot[v]
        return out


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

    def pack_cells(self, filtered: list[int], rows, reach: int | None) -> PackedCells:
        """Pack the classes of the cells w0*v, v in filtered, for the
        products ``packed_products`` makes on the given rows u, and, unless
        reach is None, for their triple sums up to reach.
        Every class is read through the cell API, so a class that fails
        its check raises here as it would for a pair made alone.

        The width k.  A slot of A = L_u . Q is
        sum_y sum_u1 seg(cell u)[u1] c_{u1,y}^w Q_j[y], so it is at most
        b = l1_in l1_row cmax in size, where l1_in is the largest L1 norm
        of the packed classes, l1_row that of seg(cell u) and csm(cell u)
        over the rows (a sweep's units: under a length filter the row w0*u
        of a chi pair lies outside it), and cmax the largest structure
        constant (``FlagCohomology.max_constant``); so is a slot of
        B = M_u . S and of C = L_u . S.  A slot of a triple sum,
        sum_y A[y] c over the entries c of the cell columns up to reach, is
        at most |W| big b in size, big the largest entry of those columns.  With
        k = ``_slot_bits(b, |W| big)`` (big = 1 without sums) every slot
        of these, faulty inputs or not, and every slot of a difference of
        two of them, is below 2^(k-1) in size: two such packed ints are
        equal exactly when every slot is, and each slot reads back exactly
        (``PackedCells.read``)."""
        csm, group, els = self.csm, self.group, self.group.elements
        cells = [csm.csm_opposite_cell(els[v]).coeffs for v in filtered]
        twists = [csm.segre_opposite_cell(els[v]).coeffs for v in filtered]
        l1_in = max(sum(map(abs, c.values())) for c in (*cells, *twists))
        l1_row = max(sum(map(abs, c.coeffs.values())) for u in rows for c in
                     (csm.segre_schubert_cell(els[u]), csm.csm_schubert_cell(els[u])))
        big = 1
        if reach is not None:
            entries = max((max(map(abs, cs)) for _, cs in csm.cell_columns(reach) if cs),
                          default=0)
            big = group.order * max(entries, 1)
        k = _slot_bits(l1_in * l1_row * self.coh.max_constant, big)
        q, s = (_pack(classes, k, group.order) for classes in (cells, twists))
        return PackedCells(k, {v: j for j, v in enumerate(filtered)},
                           {y: c for y, c in enumerate(q) if c},
                           {y: c for y, c in enumerate(s) if c},
                           sum(1 << k * j + k - 1 for j in range(len(filtered))), reach)

    def packed_products(self, ui: int, pack: PackedCells, lemma: bool):
        """Row u's products with every packed class at once, through the
        row record's operators: A = L_u . Q, whose slot of v is the class
        of (u, v); B = M_u . S, its mirror product; C = L_u . S, the product
        lemma E twists, when lemma (else None); and T, the triple sums of A
        (``_column_sums``), when pack.reach is set (else {}).  Each is
        a dict of its nonzero packed entries by element index."""
        times_seg, times_csm = self._row(ui)[:2]

        def nonzero(out):
            return {w: c for w, c in out.items() if c}

        a = nonzero(times_seg.apply(pack.csm))
        return (a, nonzero(times_csm.apply(pack.seg)),
                nonzero(times_seg.apply(pack.seg)) if lemma else None,
                {} if pack.reach is None else self._column_sums(a, pack.reach))

    def hold_packed(self, ui: int, pack: PackedCells, a: dict, t: dict, vs) -> None:
        """Hold in row u's record the classes of the pairs (u, v), v in vs,
        off the slots of A, and, when pack.reach is set, their triple sums
        off T, as ``_triple_sum`` keeps them: for products whose mirror and
        parity masks held, so each class is the one ``csm_richardson`` makes."""
        _, _, classes, _, sums = self._row(ui)
        for vi, cls in zip(vs, pack.unpack(a, vs)):
            classes[vi] = CohomologyClass(self.group, cls)
        if pack.reach is not None:
            for vi, acc in zip(vs, pack.unpack(t, vs)):
                sums[vi] = self._signed_sum(ui, vi, acc)

    def _column_sums(self, cls: dict[int, int], reach: int | None) -> dict[int, int]:
        """sum_y cls[y] c over the entries (w, c) of the column at w0*y of
        ``CsmCalculator.cell_columns(reach)``, by w, entries that are 0
        included.  On classes packed along v (``packed_products``) slot j
        is the unsigned triple sum of the class in slot j, which
        ``_signed_sum`` signs and keys by w0*w."""
        columns, w0 = self.csm.cell_columns(reach), self.group._w0
        out: dict[int, int] = {}
        for y, x in cls.items():
            for w, c in zip(*columns[w0[y]]):
                out[w] = out.get(w, 0) + x * c
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
        terms stay within it.  R is read once, and handed to the sum."""
        csm, group = self.csm, self.group
        if csm.dual_reach is None:
            csm.segre_duality()
        reach, lengths, w0 = csm.dual_reach, group._lengths, group._w0
        cls = self.csm_richardson(u, v)
        for y in cls.coeffs:
            if lengths[w0[y]] > reach:
                raise SingularSystem(f"Richardson cell ({u}, {v}) has a term at "
                                     f"[X_{group.elements[w0[y]]}], beyond the duality "
                                     f"check's length {reach}")
        return self._triple_sum(u, v, reach, cls)

    def _triple_sum(self, u: WeylElement, v: WeylElement, reach: int | None = None,
                    cls: CohomologyClass | None = None) -> dict[int, int]:
        """The triple sum of the Richardson class R of (u, v), signed and
        keyed as a CSM-basis expansion: at x, (-1)^(l(u) + l(v) - l(x)) times
        the sum over the terms y of R of R[y] c, c the coefficient at
        eps^(w0 y) of csm(cell w0*x), from the column at w0*y of
        ``CsmCalculator.cell_columns(reach)``, so every term y must have
        l(w0*y) <= reach; nonzero entries by x.  Relabelled by x -> w0*x it
        is the chi row's triple-sum row, whose dimension sign is this one.
        Kept in the row record, where conjC's read and the chi row share
        it; R, unless the caller has read it (cls), is read from the row
        only to make it."""
        sums = self._row(u.index)[4]
        out = sums.get(v.index)
        if out is None:
            cls = self.csm_richardson(u, v) if cls is None else cls
            out = sums[v.index] = self._signed_sum(u.index, v.index,
                                                   self._column_sums(cls.coeffs, reach))
        return out

    def _signed_sum(self, ui: int, vi: int, acc: dict[int, int]) -> dict[int, int]:
        """An unsigned triple sum acc of (u, v), by w, as ``_triple_sum``
        keeps it: (-1)^(l(u) + l(v) - l(x)) acc[w] at x = w0*w, if nonzero."""
        w0, lengths = self.group._w0, self.group._lengths
        base = lengths[ui] + lengths[vi]
        return {w0[w]: parity_sign(base - lengths[w0[w]]) * c for w, c in acc.items() if c}

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
