import ast
import shlex
import sys
from pathlib import Path

import csmverify
from csmverify import cli


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


def test_readme_command_lines_parse():
    """Every csmverify line of the README's "Command line" block, with its
    backslash continuations joined, parses with the CLI's own parser, so a
    retired option or a renamed subcommand in the docs fails here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("csmverify ")]
    assert len(lines) == 7
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line)[1:])


def test_package_imports_only_the_standard_library():
    """Every absolute import in the package names a standard-library module
    or csmverify itself: the package has no runtime dependency, and one
    installed here (numpy, say) would not show in any other test."""
    stray = []
    for path in sorted(Path(csmverify.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names | {"csmverify"}]
    assert stray == []
