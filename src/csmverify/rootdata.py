"""Finite root systems and Weyl groups built from Cartan data.

Everything here is exact integer arithmetic.  The positive roots form one
table in root order, each with its coroot (``_root_coords``,
``_coroot_coords``, the simple-root and simple-coroot bases) and its
reflection, read by root index.  Group elements are identified by their
action on the simple roots and read by element index, with
``WeylElement`` at the API edge; products are ``from_word`` of the
concatenated words.  The canonical reduced word of an element is the
lexicographically smallest one.  One breadth-first search by length over
right multiplication, expanding each length class in index order and
trying the letters in ascending order, reaches every element first from
the parent whose word plus one letter is that lex-first word; so elements
come out in canonical order, each with its word.  There is one
multiplication table, by simple reflections on the right.  Bruhat order
is held as one lower interval [e, w] per element, a bitmask over element
indices filled on first use down right descents; the brute-force subword
oracle is ``subword_products``, which the ``bruhat-subword`` theorem check
reads.  The Dynkin diagram automorphisms are held as one closed list of
index maps on the elements, the identity first.

One size cap, ``MAX_ORDER``, bounds every group: |W| is read from the
invariant degrees, and a group above the cap is refused before anything
of its size is built.

Conventions (fixed once, covariant throughout):

* ``matrix[i][j]`` of a Cartan datum is the pairing of the j-th simple root
  against the i-th simple coroot, so ``s_i(a_j) = a_j - matrix[i][j] * a_i``.
* Bourbaki numbering per series; in G2 the first simple root is the short
  one, which makes the highest root ``3a1 + 2a2``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import (
    CapacityExceeded,
    GroupMismatch,
    InvalidCartan,
    NotFiniteType,
)

SERIES = ("A", "B", "C", "D", "E", "F", "G")

MAX_ORDER = 10_000

# Minimum rank per series for an irreducible (simple) diagram.  Smaller
# ranks either do not exist or duplicate an earlier series.
_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
_MAX_RANK = {"E": 8, "F": 4, "G": 2}


def parity_sign(k: int) -> int:
    """(-1)^k, the one sign convention shared by every layer."""
    return -1 if k & 1 else 1


def _check_series_rank(series: str, rank: int) -> None:
    if series not in SERIES:
        raise InvalidCartan(f"series must be one of {SERIES}, got {series!r}")
    if rank < _MIN_RANK.get(series, 1) or rank > _MAX_RANK.get(series, 10**9):
        raise InvalidCartan(f"rank {rank} is not valid for series {series}")


def invariant_degrees(series: str, rank: int) -> Iterator[int]:
    """Degrees of the fundamental invariants of the Weyl group, lazily.

    They give the group order (their product), which the size cap
    ``MAX_ORDER`` is checked against before anything is built, and the
    number of positive roots N (the sum of degree-1 terms).
    """
    _check_series_rank(series, rank)
    if series == "A":
        yield from range(2, rank + 2)
    elif series in ("B", "C"):
        yield from range(2, 2 * rank + 1, 2)
    elif series == "D":
        yield from range(2, 2 * rank - 1, 2)
        yield rank
    else:
        yield from {("E", 6): (2, 5, 6, 8, 9, 12), ("E", 7): (2, 6, 8, 10, 12, 14, 18),
                    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30), ("F", 4): (2, 6, 8, 12),
                    ("G", 2): (2, 6)}[series, rank]


def weyl_order(series: str, rank: int, cap: int | None = None) -> int:
    """|W|, the product of the invariant degrees.  Given a cap, raises
    CapacityExceeded as soon as the running product passes it, so refusing
    a large rank costs a few multiplications."""
    order = 1
    for d in invariant_degrees(series, rank):
        order *= d
        if cap is not None and order > cap:
            raise CapacityExceeded(f"|W({series}{rank})| exceeds the cap {cap}")
    return order


def num_positive_roots(series: str, rank: int) -> int:
    return sum(d - 1 for d in invariant_degrees(series, rank))


def canonical_cartan_matrix(series: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """The canonical Cartan matrix for (series, rank), Bourbaki numbering."""
    _check_series_rank(series, rank)

    n = rank
    mat = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, mij=-1, mji=-1):
        mat[i][j] = mij
        mat[j][i] = mji

    if series in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if series == "B" and n >= 2:
            # last simple root short
            bond(n - 2, n - 1, -1, -2)
        if series == "C" and n >= 2:
            # last simple root long
            bond(n - 2, n - 1, -2, -1)
    elif series == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif series == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(1, 3)
    elif series == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)
        bond(2, 3)
    elif series == "G":
        # first simple root short: highest root 3a1 + 2a2
        bond(0, 1, -3, -1)
    return tuple(tuple(row) for row in mat)


def diagram_automorphisms(matrix) -> list[tuple[int, ...]]:
    """Every permutation p of the simple indices 0..n-1, as the tuple of
    images, with matrix[p i][p j] = matrix[i][j]: the automorphisms of the
    Dynkin diagram, arrows included.  One backtracking search for every
    type, the identity first."""
    n = len(matrix)
    found: list[tuple[int, ...]] = []

    def extend(p: list[int]) -> None:
        i = len(p)
        if i == n:
            found.append(tuple(p))
            return
        for t in range(n):
            if t not in p and all(matrix[t][p[j]] == matrix[i][j]
                                  and matrix[p[j]][t] == matrix[j][i] for j in range(i)):
                extend(p + [t])

    extend([])
    return found


@dataclass(frozen=True)
class CartanDatum:
    """A validated finite-type Cartan matrix with its series label.

    ``matrix[i][j]`` pairs the j-th simple root with the i-th simple coroot.
    """

    series: str
    rank: int
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # The canonical matrices are the finite-type ones, so this one
        # comparison also decides shape, entries, symmetrizability and
        # positive definiteness.
        if self.matrix != canonical_cartan_matrix(self.series, self.rank):
            raise InvalidCartan(
                f"matrix does not match the canonical Cartan matrix for {self.series}{self.rank}"
            )

    @classmethod
    def from_series(cls, series: str, rank: int) -> "CartanDatum":
        series = series.upper()
        return cls(series, rank, canonical_cartan_matrix(series, rank))

    def __str__(self):
        return f"{self.series}{self.rank}"


class WeylElement:
    """A Weyl group element in canonical form.

    Identity of an element is its action on the simple roots; the stored
    ``word`` is the lex-smallest reduced word and ``length`` the Bruhat
    length.  Instances are created by the owning :class:`WeylGroup` only and
    are shared, so equality and hashing are cheap.
    """

    __slots__ = ("group", "index", "word", "length", "_hash")

    def __init__(self, group: "WeylGroup", index: int, word: tuple[int, ...], length: int):
        self.group = group
        self.index = index
        self.word = word
        self.length = length
        self._hash = hash((group.datum.series, group.datum.rank, index))

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.index == other.index
            and self.group.datum == other.group.datum
        )

    def __hash__(self):
        return self._hash

    def __str__(self):
        if not self.word:
            return "e"
        return " ".join(f"s{i}" for i in self.word)

    def __repr__(self):
        return f"<{self} in W({self.group.datum})>"


class WeylGroup:
    """A fully enumerated finite Weyl group with its root system.

    A group above ``MAX_ORDER`` is refused before its roots are built.
    Construction is single-threaded.  Afterwards the element tables are
    fixed; only the lower Bruhat intervals (``_below``) and the right
    reflection table fill on first use, and fork workers inherit whatever
    the parent had filled before the fork.  The one multiplication table
    is ``_right``, x s_i by index; there is no left table.  Elements are
    indexed in canonical order: increasing length, ties broken by the lex
    order of canonical words.  Index 0 is the identity and the last index
    is the longest element.
    """

    def __init__(self, datum: CartanDatum):
        self.datum = datum
        self.rank = datum.rank
        self.order = weyl_order(datum.series, datum.rank, MAX_ORDER)
        self.num_positive = num_positive_roots(datum.series, datum.rank)

        self._build_roots()
        self._enumerate()

        self.elements: tuple[WeylElement, ...] = tuple(
            WeylElement(self, k, self._words[k], self._lengths[k])
            for k in range(self.order)
        )
        self.identity = self.elements[0]
        self.longest = self.elements[-1]
        if self.longest.length != self.num_positive:
            raise NotFiniteType("longest element length != number of positive roots")

        # index of w0 * x for every index x
        self._w0: list[int] = []
        for word in self._words:
            cur = self.longest.index
            for i in word:
                cur = self._right[cur][i - 1]
            self._w0.append(cur)

        # [e, w] as a bitmask over element indices, for each w asked so far
        self._below: dict[int, int] = {0: 1}
        self._refl_right: list[list[int]] | None = None

        # the index map x -> sigma(x) of every diagram automorphism sigma, the
        # identity first: sigma(y s_i) = sigma(y) s_p(i), y before y s_i
        self.diagram_maps: tuple[tuple[int, ...], ...] = ()
        for p in diagram_automorphisms(datum.matrix):
            sigma = [0] * self.order
            for x in range(1, self.order):
                i = self._words[x][-1] - 1
                sigma[x] = self._right[sigma[self._right[x][i]]][p[i]]
            self.diagram_maps += (tuple(sigma),)

    # -- root system -------------------------------------------------------

    def _build_roots(self):
        n = self.rank
        C = self.datum.matrix
        simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
        roots: dict[tuple[int, ...], tuple[int, ...]] = {
            simple[i]: simple[i] for i in range(n)
        }
        work = list(simple)
        while work:
            beta = work.pop()
            cor = roots[beta]
            for i in range(n):
                # s_i(beta) = beta - <beta, a_i^v> a_i
                pairing = sum(beta[j] * C[i][j] for j in range(n))
                new = tuple(beta[k] - (pairing if k == i else 0) for k in range(n))
                if not (any(c > 0 for c in new) and all(c >= 0 for c in new)):
                    continue
                if new in roots:
                    continue
                cpair = sum(cor[j] * C[j][i] for j in range(n))
                newcor = tuple(cor[k] - (cpair if k == i else 0) for k in range(n))
                roots[new] = newcor
                work.append(new)
                if len(roots) > self.num_positive:
                    raise NotFiniteType(
                        f"root closure exceeded {self.num_positive} positive roots"
                    )
        if len(roots) != self.num_positive:
            raise NotFiniteType(
                f"root closure produced {len(roots)} roots, expected {self.num_positive}"
            )
        ordered = sorted(roots, key=lambda r: (sum(r), r))
        self._root_coords: tuple[tuple[int, ...], ...] = tuple(ordered)
        self._coroot_coords: tuple[tuple[int, ...], ...] = tuple(roots[r] for r in ordered)

    # -- enumeration -------------------------------------------------------

    def _right_mult_action(self, cols, i):
        ci = cols[i]
        C = self.datum.matrix
        return tuple(
            tuple(cols[j][k] - C[i][j] * ci[k] for k in range(self.rank))
            for j in range(self.rank)
        )

    def _enumerate(self):
        """Elements in canonical order: a reduced word of y ends in a right
        descent i, so y's lex-first word is the least word(y s_i) + (i), and
        the search below reaches y first from exactly that parent."""
        n = self.rank
        ident = tuple(tuple(1 if k == j else 0 for k in range(n)) for j in range(n))
        actions, index, words, lengths = [ident], {ident: 0}, [()], [0]
        right = [[-1] * n]
        frontier, by_length = [0], {}
        while frontier:
            by_length[lengths[frontier[0]]] = frontier
            nxt = []
            for idx in frontier:
                cols = actions[idx]
                for i in range(n):
                    if all(c >= 0 for c in cols[i]):  # length goes up
                        t = self._right_mult_action(cols, i)
                        j = index.get(t)
                        if j is None:
                            j = len(actions)
                            actions.append(t)
                            index[t] = j
                            words.append(words[idx] + (i + 1,))
                            lengths.append(lengths[idx] + 1)
                            right.append([-1] * n)
                            nxt.append(j)
                            if len(actions) > self.order:
                                raise NotFiniteType("enumeration exceeded the group order")
                        right[idx][i] = j
                        right[j][i] = idx
            frontier = nxt
        if len(actions) != self.order:
            raise NotFiniteType(
                f"enumerated {len(actions)} elements, expected {self.order}"
            )
        self._actions = actions
        self._words = words
        self._lengths = lengths
        self._right = right
        self._by_length = by_length
        # the reflection in each positive root, found by its action
        # s_b(a_j) = a_j - <a_j, b^v> b
        C = self.datum.matrix
        refl = []
        for b, cor in zip(self._root_coords, self._coroot_coords):
            cols = []
            for j in range(n):
                p = sum(cor[k] * C[k][j] for k in range(n))
                cols.append(tuple((1 if k == j else 0) - p * b[k] for k in range(n)))
            refl.append(index[tuple(cols)])
        self._reflection_index = refl

    # -- group operations ----------------------------------------------------

    def _check_same(self, *xs):
        """Operands must share this datum; another enumeration of it has the same indices."""
        for x in xs:
            if x.group is not self and x.group.datum != self.datum:
                raise GroupMismatch(
                    f"operand of W({x.group.datum}) used with W({self.datum})"
                )

    def check_letter(self, i: int) -> None:
        """A simple index outside 1..rank raises GroupMismatch."""
        if not 1 <= i <= self.rank:
            raise GroupMismatch(f"simple index {i} out of range 1..{self.rank}")

    def simple_reflection(self, i: int) -> WeylElement:
        self.check_letter(i)
        return self.elements[self._right[0][i - 1]]

    def from_word(self, word) -> WeylElement:
        """Product of simple reflections (1-indexed); not required reduced."""
        idx = 0
        for i in word:
            self.check_letter(i)
            idx = self._right[idx][i - 1]
        return self.elements[idx]

    def parse(self, text: str) -> WeylElement:
        """Parse ``"e"`` or a word like ``"s1 s2 s1"`` (also ``s1*s2``)."""
        text = text.strip()
        if text in ("e", "1", ""):
            return self.identity
        word = []
        for tok in text.replace("*", " ").replace(",", " ").split():
            if not tok.startswith("s") or not tok[1:].isdigit():
                raise GroupMismatch(f"cannot parse {tok!r} as a simple reflection")
            word.append(int(tok[1:]))
        return self.from_word(word)

    def indices_of_length(self, l: int) -> list[int]:
        return self._by_length.get(l, [])

    def elements_of_length(self, l: int) -> list[WeylElement]:
        return [self.elements[i] for i in self.indices_of_length(l)]

    def right_reflections(self, idx: int) -> list[int]:
        """Index of (element idx) * s_beta for every positive root beta, in
        root order."""
        if self._refl_right is None:
            table = []
            words = [self._words[self._reflection_index[b]]
                     for b in range(len(self._root_coords))]
            for v in range(self.order):
                row = []
                for rw in words:
                    cur = v
                    for i in rw:
                        cur = self._right[cur][i - 1]
                    row.append(cur)
                table.append(row)
            self._refl_right = table
        return self._refl_right[idx]

    def w0_times(self, x: WeylElement) -> WeylElement:
        """Left multiplication by the longest element."""
        self._check_same(x)
        return self.elements[self._w0[x.index]]

    # -- Bruhat order --------------------------------------------------------

    def bruhat_leq(self, v: WeylElement, w: WeylElement) -> bool:
        """Bruhat order by the descent recursion, read off the lower interval
        of w (``_interval``); the cases v = e, v = w and l(v) >= l(w) need
        none."""
        self._check_same(v, w)
        return self._bruhat_leq_idx(v.index, w.index)

    def _bruhat_leq_idx(self, vi: int, wi: int) -> bool:
        if vi == 0 or vi == wi:
            return True
        if self._lengths[vi] >= self._lengths[wi]:
            return False
        return self._interval(wi) >> vi & 1 == 1

    def _interval(self, wi: int) -> int:
        """[e, w] as a bitmask, filled on first use down right descents: the
        last letter i of w's canonical word is a right descent, and by the
        lifting property v <= w iff min(v, v s_i) <= w s_i, so
        [e, w] = [e, w s_i] | [e, w s_i] s_i."""
        below = self._below.get(wi)
        if below is None:
            right, i = self._right, self._words[wi][-1] - 1
            below = rest = self._interval(right[wi][i])
            while rest:
                low = rest & -rest
                below |= 1 << right[low.bit_length() - 1][i]
                rest ^= low
            self._below[wi] = below
        return below

    def subword_products(self, w: WeylElement) -> set[int]:
        """Indices of all products of subwords of w's canonical word."""
        self._check_same(w)
        reachable = {0}
        for i in w.word:
            reachable |= {self._right[x][i - 1] for x in reachable}
        return reachable

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return f"WeylGroup({self.datum}, order={self.order})"

