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


@pytest.fixture
def class_fault(monkeypatch):
    """inject(u, v, coeff=1, term=None, mirror=True) adds coeff eps^term
    (term a word, w0's by default: the point class) to the Richardson class
    of the pair of words (u, v), inside the held row's operators: to
    L_u . csm(w0 v) after the product, and, when mirror, to M_u . seg(w0 v)
    as well, so that the mirror product agrees with the faulty class and
    the checks made after the mirror comparison see the fault."""

    def inject(u, v, coeff=1, term=None, mirror=True):
        real = RichardsonCalculator._row

        def faulty(self, ui):
            rec = real(self, ui)
            g, csm = self.group, self.csm
            if ui != g.parse(u).index:
                return rec
            times_seg, times_csm, *held = rec
            vi = g.parse(v)
            extra = coeff * self.coh.schubert_class(g.longest if term is None else g.parse(term))

            def shifted(op, arg):
                return lambda a: op(a) + extra if a == arg else op(a)

            return (shifted(times_seg, csm.csm_opposite_cell(vi)),
                    shifted(times_csm, csm.segre_opposite_cell(vi)) if mirror else times_csm,
                    *held)

        monkeypatch.setattr(RichardsonCalculator, "_row", faulty)

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
