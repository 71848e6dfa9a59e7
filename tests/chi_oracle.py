"""The per-triple oracle for the three chi paths of the deformed product.

Each path's value at one triple (u, v, w) is computed from whole classes,
with R the Richardson class of (w0 u, v):

* triple sum: (-1)^(l(w) - l(u) - l(v)) times the pairing of csm(cell w)
  with R;
* pairing: the pairing of R with seg(cell w);
* expansion: the coefficient at w0 w of a fresh CSM-basis expansion of R.

It is compared with ``BoxCalculator.chi_row`` in the tests only, as the
one-triple-at-a-time reading the row's column passes replace.
"""

from __future__ import annotations

from csmverify.boxproduct import ChiProvenance
from csmverify.rootdata import parity_sign


def chi_paths(stack, u, v) -> list[ChiProvenance]:
    """The three path values of chi(u, v, w) for every w, in index order."""
    g, coh, csm, rich = stack.group, stack.coh, stack.csm, stack.rich
    w0u = g.w0_times(u)
    cls = rich.csm_richardson(w0u, v)
    d = rich.expand_in_csm_basis(cls)
    return [ChiProvenance(
        parity_sign(w.length - u.length - v.length) * coh.pairing(csm.csm_schubert_cell(w), cls),
        coh.pairing(cls, csm.segre_schubert_cell(w)),
        d.get(g.w0_times(w).index, 0),
    ) for w in g]
