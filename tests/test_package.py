"""Properties of the package source as a whole."""

import ast
import inspect
import re
from pathlib import Path

import mathieulab
from mathieulab import verify_certificate
from mathieulab.corealg import parse_poly

PACKAGE = Path(mathieulab.__file__).parent
ROOT = Path(__file__).resolve().parent.parent

# public names that stay without a caller in src/ or the acceptance suite:
# apply_operator is the operator D itself
UNREFERENCED_ALLOWED = {"apply_operator"}


def test_no_assert_statements():
    # python -O strips assert statements, so a check written as one vanishes
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _referenced(tree, skip=None):
    """Every Name and attribute name in tree, outside the node skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_public_name_is_reached():
    # a public module-level function or class must be used by other code in
    # the package (a CLI subcommand reaches it that way) or by the acceptance
    # suite; re-exports in __init__.py do not count
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    acceptance = _referenced(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(
        encoding="utf-8")))
    unreached = []
    for path, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                    and node.name not in UNREFERENCED_ALLOWED and node.name not in acceptance
                    and not any(node.name in _referenced(other, node if other is tree else None)
                                for other in trees.values())):
                unreached.append(f"{path.stem}.{node.name}")
    assert unreached == []


def test_bench_tracer_restores_every_name_it_wraps():
    # bench/trace.py wraps the public functions it finds in each layer module,
    # which may go, and looks up the methods named in its METHODS, which must
    # stay; uninstall puts back every module and class binding it replaced
    import mathieulab.cli  # noqa: F401  (the tracer wraps every layer module)
    from bench.trace import LAYERS, METHODS, Tracer

    modules = [getattr(mathieulab, layer) for layer in LAYERS]
    owners = [mathieulab, *modules] + [obj for mod in modules for obj in vars(mod).values()
                                       if inspect.isclass(obj) and obj.__module__ == mod.__name__]
    for (layer, cls_name), methods in METHODS.items():
        missing = set(methods) - set(vars(getattr(getattr(mathieulab, layer), cls_name)))
        assert not missing, (cls_name, missing)
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer(mathieulab, lambda: 0)
    tracer.install()
    try:
        replaced = sum(vars(owner)[name] is not value
                       for owner, saved in zip(owners, before) for name, value in saved.items())
        assert tracer.names and replaced >= len(tracer.names)
    finally:
        tracer.uninstall()
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert now.keys() == saved.keys(), owner
        assert [name for name, value in saved.items() if now[name] is not value] == [], owner


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.S | re.M).group(1)
    # the results the block's comments state
    assert "# (True, -t)" in block and "# NOT_MATHIEU, witness (1, t)" in block
    names = {}
    exec(block, names)
    assert (names["ok"], names["witness"]) == (True, parse_poly("-t"))
    verdict = names["verdict"]
    assert verdict.status == "NOT_MATHIEU"
    assert verdict.witness == (parse_poly("1"), parse_poly("t"))
    assert verify_certificate(names["cert"]) is True
