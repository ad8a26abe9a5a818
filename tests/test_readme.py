import ast
import importlib
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from curvdec import cli
from curvdec.charts import conjugate_triple_report
from curvdec.jsonio import parse_chart

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "curvdec"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_readme_python_blocks_run():
    # every python example in the README runs as written, asserts included
    blocks = python_blocks()
    assert len(blocks) == 2  # the library quick tour and the chart example
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_readme_cli_lines_parse(monkeypatch):
    # every `curvdec ...` line of a README sh block parses with the CLI's own parser,
    # after main's --point rewrite: an option the CLI drops must leave the README too
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
        for line in re.findall(r"^curvdec (.*)$", block, re.M)
    ]
    parsed, parser = [], cli._parser.__wrapped__()  # a fresh parser; the cached one is untouched

    def parse_only(argv):  # main's argv, parsed, and a command that runs nothing
        parsed.append(parser.parse_args(argv))
        return SimpleNamespace(func=lambda args: 0)

    monkeypatch.setattr(cli, "_parser", lambda: SimpleNamespace(parse_args=parse_only))
    for line in lines:
        assert cli.main(shlex.split(line, comments=True)) == 0, line
    assert len(parsed) == len(lines) >= 6


def test_readme_chart_document_reads():
    # the chart document example is a valid chart: parse_chart reads it, and its
    # triple report at the origin holds every identity
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    blocks = [block for block in blocks if '"metric"' in block]  # not the tensor document
    assert len(blocks) == 1
    chart = parse_chart(blocks[0])
    report = conjugate_triple_report(chart, np.zeros(chart.dim))
    assert chart.metric_at(report.point).signature == (chart.dim, 0)
    assert max(report.identity_residuals.values()) <= 1e-8


def test_every_exported_name_has_a_caller():
    # a name the package exports is used, as a name or as an attribute of an imported
    # curvdec module (`sampling.formula_dim`, not a method that shares the name), by
    # another of its modules or by a README example; one only its own test calls is deleted
    init = PACKAGE / "__init__.py"
    exported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(init.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    trees = [ast.parse(p.read_text()) for p in PACKAGE.glob("*.py") if p != init]
    used = set()
    for tree in trees + [ast.parse(block) for block in python_blocks()]:
        imported = {  # the names this source binds to curvdec modules: `from . import x`
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "curvdec")
            for alias in node.names
            if alias.name in modules
        }
        used |= {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            or isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in imported
        }
    assert sorted(exported - used) == []


def test_every_private_helper_has_a_caller():
    # the companion of the test above: a private name defined at module level, or a
    # private method, is loaded somewhere in src/; an import alone does not count
    trees = [ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")]
    defined = set()
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        if isinstance(node, ast.ClassDef):
            defined |= {m.name for m in node.body if isinstance(m, ast.FunctionDef)}
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    private = {name for name in defined if name.startswith("_") and not name.endswith("__")}
    loaded = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    assert len(private) >= 90
    assert sorted(private - loaded) == []


def test_every_third_party_import_is_declared():
    # a top-level module imported under src/curvdec that is neither the package's own nor
    # in the standard library is named in pyproject.toml's [project].dependencies
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", dep)[0].lower() for dep in project["dependencies"]}
    imported = {
        name.split(".")[0]
        for p in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(p.read_text()))
        for name in (
            [a.name for a in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and not node.level else []
        )
    }
    third_party = imported - set(sys.stdlib_module_names) - {"curvdec"}
    assert {"numpy", "orjson"} <= third_party
    assert sorted(third_party - declared) == []


def test_failing_hypothesis_example_is_one_failure(tmp_path):
    # on a falsifying example Hypothesis imports its patching extras, whose third-party
    # DeprecationWarning must not abort the session under the project's warning filters
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x != x\n"
    )
    config = ["-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)]
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *config, "test_fails.py"]
    run = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert (run.returncode, "1 failed" in out, "INTERNALERROR" in out) == (1, True, False), out


def test_readme_module_names_resolve():
    # every backticked `module.NAME` in the README is an attribute of that curvdec module
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    named = [ref for ref in re.findall(r"`(\w+)\.(\w+)`", README.read_text()) if ref[0] in modules]
    assert len(set(named)) >= 5
    for module, name in named:
        assert hasattr(importlib.import_module(f"curvdec.{module}"), name), f"{module}.{name}"
