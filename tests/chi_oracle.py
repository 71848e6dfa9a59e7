"""The per-triple oracle for the two chi paths of the deformed product.

Each path's value at one triple (u, v, w) is computed from whole classes,
with R the Richardson class of (w0 u, v):

* triple sum: (-1)^(l(w) - l(u) - l(v)) times the pairing of csm(cell w)
  with R;
* expansion: the coefficient at w0 w of a fresh CSM-basis expansion of R.

Each pairing int a . b is the Poincare duality sum of a[x] b[w0 x], formed
here without a product.  The oracle is compared with
``BoxCalculator.chi_row`` in the tests only, as the one-triple-at-a-time
reading the row's column pass replaces.
"""

from __future__ import annotations

from csmverify.boxproduct import ChiProvenance
from csmverify.rootdata import parity_sign


def pairing(a, b) -> int:
    """int a . b = sum of a[x] b[w0 x] by Poincare duality."""
    w0 = a.group._w0
    return sum(c * b.coeffs.get(w0[x], 0) for x, c in a.coeffs.items())


def chi_paths(stack, u, v) -> list[ChiProvenance]:
    """The two path values of chi(u, v, w) for every w, in index order."""
    g, csm, rich = stack.group, stack.csm, stack.rich
    w0u = g.w0_times(u)
    cls = rich.csm_richardson(w0u, v)
    d = rich.expand_in_csm_basis(cls)
    return [ChiProvenance(
        parity_sign(w.length - u.length - v.length) * pairing(csm.csm_schubert_cell(w), cls),
        d.get(g.w0_times(w).index, 0),
    ) for w in g]
