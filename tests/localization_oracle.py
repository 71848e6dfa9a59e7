"""The localization oracle for the cup-product structure table.

Each structure constant is a triple integral, evaluated as a sum over the
torus fixed points x of

    (-1)^(N + l(x)) * r_u(x) r_v(x) r_{w0 w}(x) / P

with the restrictions r from the subword sum at the all-ones point
(``FlagCohomology._subword_row``) and P the product of the positive roots'
heights; the division must be exact.  It is compared with whole tables in
the tests only, as a method independent of the BGG recursion the engine
builds its table by.
"""

from __future__ import annotations

import functools

from csmverify.cohomology import FlagCohomology
from csmverify.errors import InternalInvariantError


class LocalizationOracle:
    """The whole structure table of one engine's group, by localization."""

    def __init__(self, coh: FlagCohomology):
        coh._ensure_rows()
        self.group = coh.group
        self.rows, self.signs, self.pos_product = coh._rows, coh._signs, coh._pos_product
        ups: list[set[int]] = [set() for _ in range(self.group.order)]
        for x, row in enumerate(self.rows):
            for w in row:
                ups[w].add(x)
        # the fixed points at which eps^w restricts to nonzero: x >= w
        self.upsets = [frozenset(s) for s in ups]

    def _triple_raw(self, i: int, j: int, k: int) -> int:
        """Integral of a triple product of basis classes, exact."""
        rows, signs = self.rows, self.signs
        total = 0
        for x in self.upsets[i] & self.upsets[j] & self.upsets[k]:
            row = rows[x]
            total += signs[x] * row[i] * row[j] * row[k]
        q, r = divmod(total, self.pos_product)
        if r:
            raise InternalInvariantError("fixed-point sum failed exact division")
        return q

    def table(self) -> list[list[dict[int, int]]]:
        """table[u][v]: the nonzero constants of eps^u . eps^v, by index."""
        group, upsets, lengths = self.group, self.upsets, self.group._lengths
        triple = functools.cache(self._triple_raw)    # by sorted indices: once per unordered triple
        empty: dict[int, int] = {}
        table = [[empty] * group.order for _ in range(group.order)]
        for ui in range(group.order):
            for vi in range(ui, group.order):
                out = {}
                for wi in group.indices_of_length(lengths[ui] + lengths[vi]):
                    if wi in upsets[ui] and wi in upsets[vi]:
                        c = triple(*sorted((ui, vi, group._w0[wi])))
                        if c:
                            out[wi] = c
                if out:
                    table[ui][vi] = table[vi][ui] = out
        return table
