import csmverify


def test_public_names_resolve_once():
    names = csmverify.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(csmverify, n)] == []
