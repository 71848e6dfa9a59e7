"""Exact integral Schubert calculus on the cohomology of a full flag manifold.

The basis classes eps^w are indexed by the Weyl group, with deg eps^w equal
to twice the length of w.  The cup-product structure constants are built by
the BGG divided-difference recursion (Bernstein-Gelfand-Gelfand 1973;
Kostant-Kumar 1986): for a right descent i of w,

    c_uv^w = [eps^{w s_i}] d_i(eps^u . eps^v),

and the Leibniz rule for d_i expands the right side into at most three
products of lower total length, one of them multiplied by the simple root
alpha_i through the degree-2 product rule (``_chevalley_idx``, on the
pairings ``_pairings`` reads off the coroot table by root index).  Every
constant is an exact sum of earlier ones, with no division; a negative one
raises, and so does a nonzero term at a y that s_i shortens.

The recursion rests on the degree-2 rule, so the table's self-check (the
unit row and the degree-2 rule on every pair of a simple reflection and an
element) is not independent of it.  The independent oracles live in the
tests only: torus fixed-point localization (``tests/localization_oracle.py``)
and the polynomial expansion route (``tests/expansion_oracle.py``), each
compared with whole tables.

The structure constants form one complete table, computed in process and
checked before the first product; it is never read from the cache, which
alone encodes it for its checksum.  Triple integrals read it by element
index, and products one column a . eps^v at a time (``Multiplier``, which
keeps the columns of a factor used again and skips, exactly, every pair of
terms whose lengths add up to more than the dimension).
"""

from __future__ import annotations

from .errors import InternalInvariantError
from .rootdata import WeylElement, WeylGroup


def _slot_bits(l1: int, big: int) -> int:
    """Width k of the signed slots when classes are packed into one int per
    element, P[y] = sum_j b_j[y] 2^(k j): if every slot of a packed
    difference is at most 2 l1 big in size, l1 an L1 norm and big an entry
    or operator-norm bound, it is below 2^(k-1), so the packed difference is
    0 exactly when every slot is."""
    return (2 * l1 * big).bit_length() + 1


class CohomologyClass:
    """A finite integer combination of basis classes eps^w (sparse, graded),
    keyed by element index."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: WeylGroup, coeffs=None):
        self.group = group
        self.coeffs: dict[int, int] = {} if coeffs is None else {
            w: c for w, c in coeffs.items() if c != 0
        }

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        self._check(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            v = out.get(w, 0) + c
            if v:
                out[w] = v
            else:
                del out[w]
        return CohomologyClass(self.group, out)

    def __sub__(self, other: "CohomologyClass") -> "CohomologyClass":
        return self + (-other)

    def __neg__(self) -> "CohomologyClass":
        return CohomologyClass(self.group, {w: -c for w, c in self.coeffs.items()})

    def __rmul__(self, n: int) -> "CohomologyClass":
        return CohomologyClass(self.group, {w: n * c for w, c in self.coeffs.items()})

    def __eq__(self, other):
        return (
            isinstance(other, CohomologyClass)
            and self.group.datum == other.group.datum
            and self.coeffs == other.coeffs
        )

    def __bool__(self):
        return bool(self.coeffs)

    def _check(self, *others):
        self.group._check_same(*others)

    def epsilon_string(self) -> str:
        """Render in the eps basis, e.g. ``eps^e - eps^{s1}``."""
        return self._render(lambda w: w)

    def schubert_variety_string(self) -> str:
        """Render in the [X_w] basis; the eps^w term is [X_{w0 w}]."""
        return self._render(self.group._w0.__getitem__, bracket=True)

    def _render(self, relabel, bracket: bool = False) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for w, c in sorted(self.coeffs.items()):
            label = str(self.group.elements[relabel(w)])
            if bracket:
                body = f"[X_{{{label}}}]" if " " in label else f"[X_{label}]"
            else:
                body = f"eps^{{{label}}}" if label != "e" else "eps^e"
            mag = abs(c)
            term = body if mag == 1 else f"{mag}{body}"
            parts.append(("- " if c < 0 else "+ ") + term)
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    def __repr__(self):
        return self.epsilon_string()


class Multiplier:
    """Multiplication by a fixed class, as a sparse operator whose column at
    v, factor . eps^v, is read off the structure table on first use and
    kept.  A product through a fresh multiplier reads the table entries the
    term-by-term double loop would read, once each; every later product
    reuses the columns already filled.

    Both loops are cut by degree, exactly: c_uv^w vanishes unless
    l(u) + l(v) <= N, so a term eps^v of b longer than N minus the factor's
    least length (``reach``) contributes nothing and fills no column, and a
    column stops at the first factor term longer than N - l(v).  The
    factor's terms are held sorted by length, as (l(u), u, c)."""

    __slots__ = ("coh", "factor", "terms", "reach", "columns")

    def __init__(self, coh: "FlagCohomology", factor: CohomologyClass):
        coh._check(factor)
        coh.build_structure_table()
        group = coh.group
        self.coh = coh
        self.factor = factor
        self.terms = sorted((group._lengths[u], u, c) for u, c in factor.coeffs.items())
        self.reach = group.num_positive - self.terms[0][0] if self.terms else -1
        self.columns: dict[int, dict[int, int]] = {}

    def __call__(self, b: CohomologyClass) -> CohomologyClass:
        """factor . b"""
        coh, columns, terms, reach = self.coh, self.columns, self.terms, self.reach
        coh._check(b)
        lengths = coh.group._lengths
        out: dict[int, int] = {}
        for vi, cv in b.coeffs.items():
            if lengths[vi] > reach:
                continue
            col = columns.get(vi)
            if col is None:
                col = columns[vi] = coh._column(terms, vi)
            for wi, c in col.items():
                out[wi] = out.get(wi, 0) + cv * c
        return CohomologyClass(coh.group, out)


class FlagCohomology:
    """Multiplication engine for one flag manifold.

    The structure table ``_table`` is None or complete and checked: built
    before the first product, and read by index as ``_table[u][v]``.  All
    tables are immutable once filled and may be read concurrently; the fill
    itself is single-threaded per instance.
    """

    def __init__(self, group: WeylGroup):
        self.group = group
        self._alpha: dict[int, list[dict[int, int]]] = {}
        self._table: list[list[dict[int, int]]] | None = None

    # -- basic class constructors ---------------------------------------------

    def zero(self) -> CohomologyClass:
        return CohomologyClass(self.group)

    def unit(self) -> CohomologyClass:
        return CohomologyClass(self.group, {0: 1})

    def schubert_class(self, w: WeylElement) -> CohomologyClass:
        self._check(w)
        return CohomologyClass(self.group, {w.index: 1})

    def from_dict(self, coeffs) -> CohomologyClass:
        self._check(*coeffs)
        return CohomologyClass(self.group, {w.index: c for w, c in coeffs.items()})

    def _check(self, *xs):
        self.group._check_same(*xs)

    # -- products and integrals --------------------------------------------------

    def integrate(self, a: CohomologyClass) -> int:
        """Coefficient of the top class (degree = dimension)."""
        self._check(a)
        return a.coeffs.get(self.group.longest.index, 0)

    def triple_integral(self, u: WeylElement, v: WeylElement, w: WeylElement) -> int:
        """int eps^u . eps^v . eps^w, read off the table by Poincare duality
        as c_uv^{w0 w}; zero unless the lengths add up to the dimension."""
        self._check(u, v, w)
        return self.structure_constants_idx(u.index, v.index).get(self.group._w0[w.index], 0)

    def structure_constants_idx(self, ui: int, vi: int) -> dict[int, int]:
        """Nonzero constants of eps^u . eps^v by element index (read-only)."""
        if self._table is None:
            self.build_structure_table()
        return self._table[ui][vi]

    def cup(self, a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
        """A one-off product: b through a throwaway multiplier of a."""
        return Multiplier(self, a)(b)

    def _column(self, terms: list[tuple[int, int, int]], vi: int) -> dict[int, int]:
        """factor . eps^v by element index, for the factor's terms sorted by
        length (``Multiplier.terms``): the one loop every product runs,
        stopped at the first term too long to meet eps^v below the top."""
        table, limit = self._table, self.group.num_positive - self.group._lengths[vi]
        out: dict[int, int] = {}
        for lu, ui, cu in terms:
            if lu > limit:
                break
            for wi, c in table[ui][vi].items():
                out[wi] = out.get(wi, 0) + cu * c
        return out

    def chevalley_agreement(self):
        """Yield (i, v, agree) for every simple reflection s_i and element v:
        whether cup(eps^{s_i}, eps^v) equals the degree-2 rule's product."""
        group = self.group
        for i in range(1, group.rank + 1):
            pairings = [cor[i - 1] for cor in group._coroot_coords]   # <omega_i, beta^v>
            si = self.schubert_class(group.simple_reflection(i))
            for v in group.elements:
                yield i, v, (self.cup(si, self.schubert_class(v)).coeffs
                             == self._chevalley_idx(pairings, v.index))

    def _pairings(self, lam) -> list[int]:
        """<lam, beta^v> for every positive root beta in root order, lam in
        the simple-root basis: the coefficients of the degree-2 rule for lam."""
        group = self.group
        C, n = group.datum.matrix, group.rank
        simple = [sum(lam[i] * C[j][i] for i in range(n)) for j in range(n)]  # <lam, a_j^v>
        return [sum(c * p for c, p in zip(cor, simple)) for cor in group._coroot_coords]

    def _chevalley_idx(self, pairings: list[int], vi: int) -> dict[int, int]:
        """The degree-2 rule on element indices: c1(L_lam) . eps^v is the sum
        of <lam, beta^v> eps^{v s_beta} over the positive roots beta with
        l(v s_beta) = l(v) + 1, for the pairings ``_pairings`` gives;
        distinct roots reach distinct elements."""
        lengths = self.group._lengths
        target = lengths[vi] + 1
        return {t: coef for coef, t in zip(pairings, self.group.right_reflections(vi))
                if coef and lengths[t] == target}

    # -- full table ------------------------------------------------------------------

    def build_structure_table(self) -> None:
        """Compute every structure constant, then self-check the table; it
        becomes readable only if it passes."""
        if self._table is None:
            self._table = self._computed_rows()
            try:
                self._check_table()
            except BaseException:
                self._table = None
                raise

    def _computed_rows(self) -> list[list[dict[int, int]]]:
        """The table by the BGG recursion, filled for u <= v in order of
        l(u) + l(v) up to N.  With s_i(a) = a - alpha_i . d_i(a), the Leibniz
        rule gives d_i(eps^u . eps^v) from at most three earlier rows, and
        its eps^y term is the constant at y s_i.  A letter outside
        desc(u) | desc(v) has d_i(eps^u . eps^v) = 0, so it is no right
        descent of any w in the product; a nonzero term at a y that s_i
        shortens raises.  Every empty pair shares one empty dict."""
        group = self.group
        empty: dict[int, int] = {}
        table = [[empty] * group.order for _ in range(group.order)]
        n, lengths, right, els = group.num_positive, group._lengths, group._right, group.elements
        alpha = [self._alpha_row(i) for i in range(group.rank)]
        descents = [{i: t for i, t in enumerate(right[x]) if lengths[t] < lengths[x]}
                    for x in range(group.order)]
        for vi in range(group.order):
            table[0][vi] = table[vi][0] = {vi: 1}
        by_length = [group.indices_of_length(l) for l in range(n + 1)]
        pairs = ((ui, vi) for total in range(2, n + 1) for lu in range(1, total // 2 + 1)
                 for ui in by_length[lu] for vi in by_length[total - lu] if ui <= vi)
        for ui, vi in pairs:
            du, dv = descents[ui], descents[vi]
            out: dict[int, int] = {}
            for i in du.keys() | dv.keys():
                us, vs = du.get(i), dv.get(i)
                d = dict(table[us][vi]) if us is not None else {}
                if vs is not None:
                    for y, c in table[ui][vs].items():
                        d[y] = d.get(y, 0) + c
                    if us is not None:
                        a = alpha[i]
                        for y, c in table[us][vs].items():
                            for z, m in a[y].items():
                                d[z] = d.get(z, 0) - c * m
                for y, c in d.items():
                    if not c:
                        continue
                    w = right[y][i]
                    if lengths[w] < lengths[y]:
                        raise InternalInvariantError(
                            f"d_{i + 1}(eps^u . eps^v) has a term at {els[y]}, whose s{i + 1} "
                            f"is a descent, for ({els[ui]}, {els[vi]})")
                    if c < 0:
                        raise InternalInvariantError("negative cup structure constant at "
                                                     f"({els[ui]}, {els[vi]}, {els[w]})")
                    out[w] = c
            if out:
                table[ui][vi] = table[vi][ui] = dict(sorted(out.items()))
        return table

    def _alpha_row(self, i: int) -> list[dict[int, int]]:
        """alpha_i . eps^y for every element y, for the letter i (from 0), by
        the degree-2 rule; built on the letter's first use, one letter at a
        time."""
        row = self._alpha.get(i)
        if row is None:
            group = self.group
            pairings = self._pairings(tuple(int(k == i) for k in range(group.rank)))
            row = self._alpha[i] = [self._chevalley_idx(pairings, y) for y in range(group.order)]
        return row

    def _check_table(self) -> None:
        """The unit row, and the degree-2 product rule on every pair (simple
        reflection, element): rank * |W| single-term cups."""
        unit_row = self._table[0]
        if any(unit_row[vi] != {vi: 1} for vi in range(self.group.order)):
            raise InternalInvariantError("unit row of the cup table is wrong")
        for i, v, agree in self.chevalley_agreement():
            if not agree:
                raise InternalInvariantError(f"degree-2 products disagree at (s{i}, {v})")
