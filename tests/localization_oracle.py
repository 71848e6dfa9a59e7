"""The localization oracle for the cup-product structure table.

Each structure constant is a triple integral, evaluated as a sum over the
torus fixed points x of

    (-1)^(N + l(x)) * r_u(x) r_v(x) r_{w0 w}(x) / P

with the restrictions r from Billey's subword sum (``subword_row``) at an
evaluation point positive on every positive root (all ones unless given),
and P the product of the positive roots' values there; the division must
be exact.  It is compared with whole tables in the tests only, as a method
independent of the BGG recursion the engine builds its table by.
"""

from __future__ import annotations

import functools
import math

from csmverify.cohomology import FlagCohomology
from csmverify.errors import InternalInvariantError
from csmverify.rootdata import WeylGroup, parity_sign


def subword_row(group: WeylGroup, x: int, root, one) -> dict:
    """Restrictions of every basis class at the fixed point x: the subword
    sum over x's canonical word, each root taken as root(coords)."""
    row, pref = {0: one}, 0
    for i in group._words[x]:
        # the reflection-ordering root of this letter
        beta = root(group._actions[pref][i - 1])
        pref = group._right[pref][i - 1]
        for y, val in list(row.items()):
            z = group._right[y][i - 1]
            if group._lengths[z] > group._lengths[y]:
                row[z] = row[z] + val * beta if z in row else val * beta
    return row


class LocalizationOracle:
    """The whole structure table of one engine's group, by localization at
    ``point`` (root coordinates; all ones, each root's height, if None)."""

    def __init__(self, coh: FlagCohomology, point=None):
        group = self.group = coh.group
        point = point or (1,) * group.rank

        def root(coords):
            return sum(c * p for c, p in zip(coords, point))

        self.rows = [subword_row(group, x, root, 1) for x in range(group.order)]
        self.signs = [parity_sign(group.num_positive + l) for l in group._lengths]
        self.pos_product = math.prod(root(coords) for coords in group._root_coords)
        ups: list[set[int]] = [set() for _ in range(group.order)]
        for x, row in enumerate(self.rows):
            for w in row:
                ups[w].add(x)
        # the fixed points at which eps^w restricts to nonzero: x >= w
        self.upsets = [frozenset(s) for s in ups]

    def triple(self, i: int, j: int, k: int) -> int:
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
        triple = functools.cache(self.triple)    # by sorted indices: once per unordered triple
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
