from pathlib import Path

import csmverify


def test_public_names_resolve_once():
    names = csmverify.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(csmverify, n)] == []


def test_readme_library_example_runs(capsys):
    """The README's library example runs as written, so no name it uses
    can leave the package unnoticed."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 3
