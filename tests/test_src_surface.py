"""`src/portchain` defines nothing that only tests use: every module-level
function and class, and every method and property of a class, is
referenced somewhere in the package other than in its own definition.
A test-only helper belongs in the tests.  And no module imports another
module's private names: what a module keeps private, it alone uses."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "portchain"

# module.name or module.Class.name -> why it stays in src unreferenced; an
# entry that gains a reference fails the test too, so the list cannot go stale
UNREFERENCED = {
    "analysis.conservation_audit": "perfbench/workloads.py gates each op's drift with it "
                                   "(ROADMAP item 11)",
    "analysis.fairness_from_draws": "perfbench/workloads.py's chi-square batch calls it, and "
                                    "perfbench/tracer.py times it; `portchain run` folds its "
                                    "draws into the same DrawTally during the replay",
    "netsim.SimTranscript.events": "perfbench/tracer.py and perfbench/workloads.py read each "
                                   "run's proposals and commit latencies from it "
                                   "(ROADMAP item 11)",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions_and_references():
    """(qualified name -> its definition node, name -> the nodes that use
    it anywhere in src, each with whether it is an attribute).  A method or property is used
    only as an attribute, so a local variable of its name is no use of it."""
    definitions, uses = {}, {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for top in tree.body:
            if isinstance(top, _DEFS):
                definitions[f"{path.stem}.{top.name}"] = top
            if isinstance(top, ast.ClassDef):
                for member in top.body:
                    # a dunder method is called by Python itself
                    if isinstance(member, _DEFS) and not member.name.startswith("__"):
                        definitions[f"{path.stem}.{top.name}.{member.name}"] = member
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((node, False))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((node, True))
    return definitions, uses


def test_src_defines_nothing_only_tests_use():
    definitions, uses = _definitions_and_references()
    referenced = set()
    for qualified, node in definitions.items():
        is_member = qualified.count(".") == 2
        inside = {id(n) for n in ast.walk(node)}
        if any(id(use) not in inside and (attribute or not is_member)
               for use, attribute in uses.get(node.name, ())):
            referenced.add(qualified)
    methods = [q for q in definitions if q.count(".") == 2]
    assert len(definitions) - len(methods) > 50 and len(methods) > 50
    assert set(UNREFERENCED) <= set(definitions)
    assert sorted(set(definitions) - referenced - set(UNREFERENCED)) == []
    # an allow-listed name that src now uses no longer needs its entry
    assert sorted(referenced & set(UNREFERENCED)) == []


def test_no_module_imports_another_modules_private_names():
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [f"{path.stem}: from {'.' * node.level}{node.module or ''} import {a.name}"
                            for a in node.names if a.name.startswith("_")]
    assert private == []
