import pytest

from csmverify.cohomology import CohomologyClass
from csmverify.richardson import RichardsonCalculator
from csmverify.verify import build_engines, materialize_tables

_STACKS = {}


@pytest.fixture(scope="session")
def engines():
    """Shared calculator stacks, one per group, tables materialized."""

    def get(series, rank):
        key = (series, rank)
        if key not in _STACKS:
            stack = build_engines(series, rank)
            materialize_tables(stack)
            _STACKS[key] = stack
        return _STACKS[key]

    return get


@pytest.fixture(autouse=True)
def _drop_held_rows():
    """Drop the held Richardson row of every shared stack when a test ends,
    so that no test reads a row filled under another test's monkeypatch."""
    yield
    for stack in _STACKS.values():
        stack.rich._rows.clear()


class _Rewritten:
    """A row operator whose products go through rewrite(a, product); its
    ``apply``, which the packed products use, stays the operator's own."""

    def __init__(self, op, rewrite):
        self.op, self.rewrite = op, rewrite

    def __call__(self, a):
        return self.rewrite(a, self.op(a))

    def __getattr__(self, name):
        return getattr(self.op, name)


@pytest.fixture
def pair_fault(monkeypatch):
    """inject(change, parts=("class", "mirror")) rewrites Richardson classes
    inside the row operators, wherever a class is made: change(u, v, coeffs)
    returns the coefficients, by element index, that replace coeffs, those
    of the class of the pair of elements (u, v).  "class" rewrites
    L_u . csm(w0 v) where a pair is made alone, and the slot of v of A in a
    sweep unit's packed products (``RichardsonCalculator.packed_products``),
    whose triple sums T are then made from the faulty A; "mirror" does the
    same to M_u . seg(w0 v) and to B.  With both, the mirror product agrees
    with the faulty class, and the checks made after the mirror comparison
    see the fault; with one, the mirror comparison does.  An opposite cell
    class is told by its leading term, at v."""

    def inject(change, parts=("class", "mirror")):
        real_row, real_products = RichardsonCalculator._row, RichardsonCalculator.packed_products

        def row(self, ui):
            els, csm = self.group.elements, self.csm
            times_seg, times_csm, *held = real_row(self, ui)

            def rewrite(opposite):
                def product(a, out):
                    vi = min(a.coeffs, default=None)
                    if vi is None or a != opposite(els[vi]):
                        return out
                    return CohomologyClass(self.group, change(els[ui], els[vi], dict(out.coeffs)))
                return product

            return (_Rewritten(times_seg, rewrite(csm.csm_opposite_cell))
                    if "class" in parts else times_seg,
                    _Rewritten(times_csm, rewrite(csm.segre_opposite_cell))
                    if "mirror" in parts else times_csm,
                    *held)

        def products(self, ui, pack, lemma):
            els = self.group.elements
            a, b, c, t = real_products(self, ui, pack, lemma)

            def rewritten(packed):
                out = dict(packed)
                for vi, j in pack.slot.items():
                    old = {y: val for y, x in packed.items() if (val := pack.read(x, j))}
                    new = change(els[ui], els[vi], dict(old))
                    for y in old.keys() | new.keys():
                        out[y] = out.get(y, 0) + (new.get(y, 0) - old.get(y, 0) << pack.k * j)
                return {y: x for y, x in out.items() if x}

            if "class" in parts:
                a = rewritten(a)
                if pack.reach is not None:
                    t = self._column_sums(a, pack.reach)
            return a, rewritten(b) if "mirror" in parts else b, c, t

        monkeypatch.setattr(RichardsonCalculator, "_row", row)
        monkeypatch.setattr(RichardsonCalculator, "packed_products", products)

    return inject


@pytest.fixture
def class_fault(pair_fault):
    """inject(u, v, coeff=1, term=None, mirror=True) adds coeff eps^term
    (term a word, w0's by default: the point class) to the Richardson class
    of the pair of words (u, v), through ``pair_fault``: to the class,
    wherever it is made, and, when mirror, to its mirror product as well,
    so that the mirror product agrees with the faulty class and the checks
    made after the mirror comparison see the fault."""

    def inject(u, v, coeff=1, term=None, mirror=True):
        def change(x, y, coeffs):
            g = x.group
            if (x, y) == (g.parse(u), g.parse(v)):
                t = (g.longest if term is None else g.parse(term)).index
                coeffs[t] = coeffs.get(t, 0) + coeff
            return coeffs

        pair_fault(change, ("class", "mirror") if mirror else ("class",))

    return inject


@pytest.fixture
def reader_fault(monkeypatch):
    """inject(name, fault) makes the per-pair reader
    RichardsonCalculator.<name> call fault(u, v) first, which raises at the
    pairs it breaks, and a sweep unit's packed products call it on every
    pair of the row that the pack holds: a unit that holds a broken pair
    cannot make its packed products, and reads its pairs one at a time,
    through the reader."""

    def inject(name, fault):
        real, real_products = getattr(RichardsonCalculator, name), \
            RichardsonCalculator.packed_products

        def reader(self, u, v):
            fault(u, v)
            return real(self, u, v)

        def products(self, ui, pack, lemma):
            els = self.group.elements
            for vi in pack.slot:
                fault(els[ui], els[vi])
            return real_products(self, ui, pack, lemma)

        monkeypatch.setattr(RichardsonCalculator, name, reader)
        monkeypatch.setattr(RichardsonCalculator, "packed_products", products)

    return inject


@pytest.fixture(scope="session")
def group(engines):
    def get(series, rank):
        return engines(series, rank).group

    return get


def _double_loop_product(coh, a, b):
    """a . b summed term by term over the structure constants, the product
    oracle that goes through no multiplier."""
    out = {}
    for u, cu in a.coeffs.items():
        for v, cv in b.coeffs.items():
            for w, c in coh.structure_constants_idx(u, v).items():
                out[w] = out.get(w, 0) + cu * cv * c
    return CohomologyClass(coh.group, out)


@pytest.fixture(scope="session")
def product_oracle():
    return _double_loop_product


def _root_image(group, x, coords):
    """x(beta) in the simple-root basis, for beta given by its simple-root
    coordinates, read off x's images of the simple roots (``_actions``):
    the root action the checks of reflections, inversions and the Billey
    diagonal share, independent of the reflection tables."""
    cols = group._actions[x]
    return tuple(sum(c * col[k] for c, col in zip(coords, cols)) for k in range(group.rank))


@pytest.fixture(scope="session")
def root_image():
    return _root_image


def _inversions(group, x):
    """The positive roots, as coordinates, that the element of index x
    sends negative."""
    return [b for b in group._root_coords if any(c < 0 for c in _root_image(group, x, b))]


@pytest.fixture(scope="session")
def inversions():
    return _inversions
