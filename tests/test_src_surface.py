"""`src/portchain` defines nothing that only tests use: every module-level
function and class is referenced somewhere in the package other than in
its own definition.  A test-only helper belongs in the tests."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "portchain"

# module.name -> why it stays in src unreferenced; an entry that gains a
# reference fails the test too, so the list cannot go stale
UNREFERENCED = {
    "analysis.conservation_audit": "perfbench/workloads.py gates each op's drift with it "
                                   "(ROADMAP item 11)",
    "analysis.fairness_from_draws": "perfbench/workloads.py's chi-square batch calls it, and "
                                    "perfbench/tracer.py times it; `portchain run` folds its "
                                    "draws into the same DrawTally during the replay",
}


def _definitions_and_references():
    """(module.name -> its definition node, every name used in src with
    the definition node it sits in, if any)."""
    definitions, uses = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for top in tree.body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions[f"{path.stem}.{top.name}"] = owner = top
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    uses.append((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    uses.append((node.attr, owner))
    return definitions, uses


def test_src_defines_nothing_only_tests_use():
    definitions, uses = _definitions_and_references()
    referenced = {
        qualified for qualified, node in definitions.items()
        if any(name == node.name and owner is not node for name, owner in uses)
    }
    assert len(definitions) > 50 and set(UNREFERENCED) <= set(definitions)
    assert sorted(set(definitions) - referenced - set(UNREFERENCED)) == []
    # an allow-listed name that src now uses no longer needs its entry
    assert sorted(referenced & set(UNREFERENCED)) == []
