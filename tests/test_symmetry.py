"""The symmetry orbits of the sweeps: the diagram automorphisms, the orbit
rule, and every copied entry against the one computed at its own pair."""

import json

import pytest

from csmverify.boxproduct import BoxCalculator
from csmverify.cohomology import FlagCohomology
from csmverify.csm import CsmCalculator
from csmverify.richardson import RichardsonCalculator
from csmverify.rootdata import (CartanDatum, WeylGroup, canonical_cartan_matrix,
                                diagram_automorphisms)
from csmverify.verify import (
    SUITE_NAMES,
    SuiteResult,
    _RECORD_STEPS,
    _Sweep,
    _run_suites,
    build_engines,
    materialize_tables,
    run_verification,
)

PAIR_SUITES = ["theorem-invariants", "conjB", "conjC"]
CHI_SUITES = ["conjD", "cross-paths"]


@pytest.mark.parametrize("series,rank,count", [
    ("A", 1, 1), ("A", 2, 2), ("A", 5, 2), ("B", 3, 1), ("C", 4, 1), ("D", 3, 2),
    ("D", 4, 6), ("D", 5, 2), ("E", 6, 2), ("E", 7, 1), ("E", 8, 1), ("F", 4, 1),
    ("G", 2, 1)])
def test_diagram_automorphisms_by_type(series, rank, count):
    """One search finds every type's automorphisms, arrows respected: S3
    on D4, the flip on A_n (n >= 2), D_n and E6, nothing on B, C, F4, G2,
    E7 and E8.  Each fixes the Cartan matrix, and the identity is first."""
    matrix = canonical_cartan_matrix(series, rank)
    found = diagram_automorphisms(matrix)
    assert len(found) == len(set(found)) == count
    assert found[0] == tuple(range(rank))
    for p in found:
        assert all(matrix[p[i]][p[j]] == matrix[i][j]
                   for i in range(rank) for j in range(rank))


@pytest.mark.parametrize("series,rank,involutions,size", [
    ("A", 3, 1, 2), ("A", 4, 1, 2), ("D", 4, 3, 6), ("B", 3, 0, 1), ("G", 2, 0, 1)])
def test_diagram_maps_are_group_automorphisms(series, rank, involutions, size):
    """The index maps are the whole automorphism group, each once, the
    identity first, closed under composition; on D4 it is S3, with three
    involutions.  Each is a length-preserving bijection that maps each
    simple reflection onto one, is multiplicative, and commutes with w0."""
    g = WeylGroup(CartanDatum.from_series(series, rank))
    maps = g.diagram_maps
    identity = tuple(range(g.order))
    assert len(maps) == len(set(maps)) == size
    assert maps[0] == identity
    assert {tuple(a[x] for x in b) for a in maps for b in maps} == set(maps)
    assert sum(tuple(m[x] for x in m) == identity for m in maps[1:]) == involutions
    simple = [g._right[0][i] for i in range(rank)]
    for sigma in maps:
        assert sorted(sigma) == list(range(g.order))
        letters = [simple.index(sigma[s]) for s in simple]
        assert sorted(letters) == list(range(rank))
        for x in range(g.order):
            assert g._lengths[sigma[x]] == g._lengths[x]
            assert sigma[g._w0[x]] == g._w0[sigma[x]]
            for i in range(rank):
                assert sigma[g._right[x][i]] == g._right[sigma[x]][letters[i]]


@pytest.mark.parametrize("series,rank,max_length,computed", [
    ("A", 3, None, 172), ("A", 4, None, 3_676), ("D", 4, None, 3_738),
    ("B", 4, None, 73_920), ("A", 4, 3, None), ("D", 4, 2, None)])
def test_orbit_rule_covers_every_pair_once(series, rank, max_length, computed):
    """Under the orbit rule, in Richardson keys (r, v), each pair a kind
    keeps is the least kept member of its orbit or a copy of exactly one
    such pair: the pair suites keep r filtered, the chi rows w0*r, and no
    other row has a representative.  With every element kept, the numbers
    computed are the orbit counts, the same for both kinds: by Burnside,
    (576 + 24 + 64 + 24) / 4 on A3, and on B4, whose only map is the
    partner, (384^2 + 384) / 2."""
    g = WeylGroup(CartanDatum.from_series(series, rank))
    filtered = [x for x in range(g.order) if max_length is None or g._lengths[x] <= max_length]
    sweep = _Sweep.of(g, ["conjB", "conjD"], filtered)
    rows = {False: filtered, True: sorted(g._w0[x] for x in filtered)}
    all_reps = {}
    for triple, kept_rows in rows.items():
        reps = {}
        for r in range(g.order):
            for v in filtered:
                copies = sweep.copies((r, v), triple)
                if copies is not None:
                    reps[r, v] = copies
        covered = [key for rep, copies in reps.items() for key in (rep, *copies)]
        assert sorted(covered) == [(r, v) for r in kept_rows for v in filtered]
        assert computed is None or len(reps) == computed
        all_reps[triple] = reps
    if max_length is None:
        assert all_reps[False] == all_reps[True]
    assert sweep.units() == sorted(set(rows[False]) | set(rows[True]))


@pytest.mark.parametrize("key,computed", [(("A", 3), 172), (("B", 3), 1_176)],
                         ids=["A3", "B3"])
def test_each_orbit_computed_once_across_kinds(key, computed, monkeypatch):
    """A sweep of every suite computes one Richardson class per orbit, as
    many as a sweep of either kind alone: the pair suites and the chi rows
    share one orbit rule and its representatives.  Each class computed
    reads one opposite cell."""
    stack = build_engines(*key)
    materialize_tables(stack)
    calls = []
    real = CsmCalculator.csm_opposite_cell

    def counted(self, v):
        calls.append(v)
        return real(self, v)

    monkeypatch.setattr(CsmCalculator, "csm_opposite_cell", counted)
    _run_suites(stack, SUITE_NAMES, None, 1)
    assert len(calls) == computed


def _every_pair(stack):
    """Every pair's Richardson class, CSM-basis expansion and chi row,
    each computed at its own pair."""
    g, rich, box = stack.group, stack.rich, stack.box
    classes, expansions, chi = {}, {}, {}
    for u in g:
        for v in g:
            classes[u.index, v.index] = rich.csm_richardson(u, v).coeffs
            expansions[u.index, v.index] = rich.csm_basis_coeffs(u, v).coeffs
    for u in g:
        for v in g:
            row = box.chi_row(u, v)
            chi[u.index, v.index] = (row.triple_sum, row.pairing, row.expansion)
    return classes, expansions, chi


def _check_copies(stack):
    g, w0 = stack.group, stack.group._w0
    classes, expansions, chi = _every_pair(stack)
    maps = g.diagram_maps
    assert len(maps) > 1
    for (u, v), cls in classes.items():
        # the partner map, for the Richardson classes and their expansions
        assert classes[w0[v], w0[u]] == cls
        assert expansions[w0[v], w0[u]] == expansions[u, v]
        # the swap, for the three paths of the chi rows
        assert chi[v, u] == chi[u, v]
        for sigma in maps[1:]:
            image = (sigma[u], sigma[v])
            assert classes[image] == {sigma[x]: c for x, c in cls.items()}
            assert expansions[image] == {sigma[x]: c for x, c in expansions[u, v].items()}
            assert chi[image] == tuple({sigma[w]: c for w, c in path.items()}
                                       for path in chi[u, v])


def test_copies_equal_computed_a3():
    """On every pair of A3, what a copy is read from equals what its own
    pair computes: the classes and expansion rows under sigma and the
    partner map, the chi rows under sigma and the swap."""
    _check_copies(build_engines("A", 3))


@pytest.mark.long
@pytest.mark.parametrize("key", [("A", 4), ("D", 4)], ids=["A4", "D4"])
def test_copies_equal_computed_long(key):
    """As on A3, on every pair of A4 and D4 (S3)."""
    _check_copies(build_engines(*key))


def _findings_everywhere(monkeypatch):
    """Findings in every suite, on sets of pairs closed under sigma, the
    partner map and the swap: the Richardson classes of the pairs with
    l(u) + l(v) odd are negated, which breaks conjB and conjC and adds
    conjD findings, and the pairing path of the chi rows of the pairs of
    lengths {1, 2} is raised by 1 at each w of length 2, which fails
    cross-paths there (and not the box products, which read the row from
    length 3 up)."""
    real = RichardsonCalculator.csm_richardson
    real_row = BoxCalculator.chi_row

    def negated(self, u, v):
        out = real(self, u, v)
        return -1 * out if (u.length + v.length) % 2 else out

    def raised(self, u, v):
        row = real_row(self, u, v)
        if sorted((u.length, v.length)) == [1, 2]:
            row.pairing = {**row.pairing, **{w: row.pairing.get(w, 0) + 1
                                             for w in self.group.indices_of_length(2)}}
        return row

    monkeypatch.setattr(RichardsonCalculator, "csm_richardson", negated)
    monkeypatch.setattr(BoxCalculator, "chi_row", raised)


def _check_against_every_pair(series, rank, max_length, monkeypatch):
    """The suites' results, serial and under --jobs 2, against each record
    step run on every filtered pair in (row, column) order: the same
    instances and entries, the copies' witnesses included."""
    import csmverify.verify as verify_mod

    _findings_everywhere(monkeypatch)
    monkeypatch.setattr(verify_mod.os, "sched_getaffinity", lambda pid: {0, 1})
    names = ["conjB", "conjC", *CHI_SUITES]
    stack = build_engines(series, rank)
    materialize_tables(stack)
    serial, pooled = (_run_suites(stack, names, max_length, jobs) for jobs in (1, 2))
    assert {n: r.to_dict() for n, r in serial.items()} \
        == {n: r.to_dict() for n, r in pooled.items()}
    kept = [w for w in stack.group if max_length is None or w.length <= max_length]
    for name in names:
        tally = SuiteResult(name)
        for u in kept:
            for v in kept:
                _RECORD_STEPS[name](stack, tally, u, v)
        result = serial[name]
        assert tally.hard_failures if name == "cross-paths" else tally.violations, name
        assert (result.instances, result.violations, result.hard_failures,
                result.hard_failure_count) == (tally.instances, tally.violations,
                                               tally.hard_failures, tally.hard_failure_count)


@pytest.mark.parametrize("series,rank,max_length", [("A", 3, None), ("D", 4, 2)])
def test_copied_witnesses_equal_computed(series, rank, max_length, monkeypatch):
    """Every relabelled witness is the one its own pair would record."""
    _check_against_every_pair(series, rank, max_length, monkeypatch)


@pytest.mark.long
@pytest.mark.parametrize("series,rank,max_length", [("A", 4, None), ("D", 4, 3)])
def test_copied_witnesses_equal_computed_long(series, rank, max_length, monkeypatch):
    """As above, on every pair of A4, and on D4 up to length 3, where a
    pair has up to 12 images under S3 and the partner map or the swap."""
    _check_against_every_pair(series, rank, max_length, monkeypatch)


@pytest.mark.long
@pytest.mark.parametrize("key", [("A", 4), ("D", 4)], ids=["A4", "D4"])
def test_pair_suites_pool_equals_serial(key, monkeypatch):
    """The exhaustive pair suites report the same under --jobs 2 as serially."""
    import csmverify.verify as verify_mod

    monkeypatch.setattr(verify_mod.os, "sched_getaffinity", lambda pid: {0, 1})
    reports = [json.loads(run_verification(*key, suites=PAIR_SUITES, jobs=jobs).to_json())
               for jobs in (1, 2)]
    for d in reports:
        d.pop("timings")
        d["options"].pop("jobs")
    assert reports[0] == reports[1]
    assert reports[0]["exit_code"] == 0


# -- the equivariance check -------------------------------------------------------------


def _structure_constant_raised(monkeypatch):
    """Raise one structure constant c_uv^w by 1, at the first nonzero one
    with l(u), l(v) >= 2 and sigma u != u, where the table's own check (the
    unit row and the degree-2 rule) does not look."""
    real = FlagCohomology._computed_rows

    def raised(self):
        table = real(self)
        g = self.group
        sigma = g.diagram_maps[1]
        u, v = next((u, v) for u in range(g.order) for v in range(u, g.order)
                    if min(g._lengths[u], g._lengths[v]) >= 2 and sigma[u] != u and table[u][v])
        w = min(table[u][v])
        table[u][v] = table[v][u] = {**table[u][v], w: table[u][v][w] + 1}
        return table

    monkeypatch.setattr(FlagCohomology, "_computed_rows", raised)


def _cell_coefficient_raised(monkeypatch):
    """Raise the coefficient at eps^{s1} of csm(cell w0) by 1: the class
    stays positive with its leading and top coefficients 1, and no other
    cell class is built from it; sigma moves s1."""
    real = CsmCalculator._cell_idx

    def raised(self, idx):
        out = real(self, idx)
        s1 = self.group.simple_reflection(1).index
        if idx == self.group.longest.index and not getattr(self, "_raised", False):
            self._raised = True
            out.coeffs[s1] = out.coeffs.get(s1, 0) + 1
        return out

    monkeypatch.setattr(CsmCalculator, "_cell_idx", raised)


@pytest.mark.parametrize("mutate", [_structure_constant_raised, _cell_coefficient_raised])
@pytest.mark.parametrize("key", [("A", 3), ("D", 4)], ids=["A3", "D4"])
def test_tables_off_equivariance_fail_the_run(mutate, key, monkeypatch):
    """A table that is not sigma-equivariant ends the run with a hard
    failure in every suite that made sigma copies, one for each
    automorphism the table breaks, and adds no instance."""
    mutate(monkeypatch)
    max_length = 2 if key == ("D", 4) else None
    report = run_verification(*key, suites=["conjB", "cross-paths"], max_length=max_length)
    assert report.exit_code == 2
    table = "structure constants" if mutate is _structure_constant_raised else "CSM class"
    automorphisms = len(WeylGroup(CartanDatum.from_series(*key)).diagram_maps) - 1
    for result in report.suites.values():
        assert result.instances == result.predicted_instances
        found = [e for e in result.hard_failures if e["check"] == "diagram-equivariance"]
        assert 1 <= len(found) <= automorphisms
        for e in found:
            assert e["error"].startswith(table)
            assert "not equivariant under the diagram automorphism s1.." in e["error"]


@pytest.mark.parametrize("key,max_length,suites,calls", [
    (("A", 3), None, ["conjB", "conjD"], 1), (("A", 3), 1, ["conjB"], 1),
    (("A", 3), 0, ["conjB", "conjD"], 0), (("B", 3), None, ["conjB"], 0)])
def test_equivariance_check_runs_once_with_sigma_copies(key, max_length, suites, calls,
                                                        monkeypatch):
    """The check runs once per run, and only when a suite made sigma copies:
    on A3 under length 0 the one pair (e, e) is its own orbit, and B3 has
    no diagram automorphism."""
    import csmverify.verify as verify_mod

    real, seen = verify_mod._equivariance_failures, []
    monkeypatch.setattr(verify_mod, "_equivariance_failures",
                        lambda stack: seen.append(stack) or real(stack))
    stack = build_engines(*key)
    materialize_tables(stack)
    _run_suites(stack, suites, max_length, 1)
    assert len(seen) == calls


def test_equivariant_tables_pass(engines):
    """The tables as built are equivariant on A3, A4 and D4."""
    from csmverify.verify import _equivariance_failures

    for key in [("A", 3), ("A", 4), ("D", 4)]:
        stack = engines(*key)
        assert len(stack.group.diagram_maps) > 1
        assert _equivariance_failures(stack) == []
