"""Every name an export list promises resolves, so none outlives its code;
every public definition has a caller or a test that compares against it."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import cshiftlab

MODULES = ["cshiftlab"] + [f"cshiftlab.{m.name}"
                           for m in pkgutil.iter_modules(cshiftlab.__path__)]

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted(p for p in (ROOT / "src" / "cshiftlab").glob("*.py")
             if p.name != "__init__.py")
CALLERS = SRC + sorted((ROOT / "demos").glob("*.py")) \
    + [ROOT / "bench" / f for f in ("run.py", "workloads.py", "tracer.py")]

#: public definitions that no pipeline, demo or benchmark calls: each is a
#: test reference, kept for the test (file::class::function) that compares
#: against it
TEST_REFERENCES = {
    "dchi": "test_rhp.py::TestChi::"
            "test_loop_trace_matches_the_per_point_product",
    "k_kt": "test_kernels.py::TestKFactors::"
            "test_factors_match_the_dense_kernel",
    "lowered_err": "test_chf.py::TestIndexRelation::"
                   "test_matches_the_reference",
    "pair": "test_l2half.py::TestPairing::test_closed_rational_form",
    "pairing_closed_form": "test_l2half.py::TestPairing::"
                           "test_closed_rational_form",
    "refined": "test_quadgrid.py::TestGaussInterval::"
               "test_refinement_stability",
    "smoothing_bound": "test_parametrix.py::TestParametrixInvariants::"
                       "test_factor_bound_matches_the_dense_one",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def _references(tree) -> Counter:
    """Identifiers used as a name or an attribute anywhere in ``tree``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _public_definitions():
    """(module.qualname, name, node) of every public function, class and
    method of the package's modules."""
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) \
                            and not m.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{m.name}", m.name, m


def test_every_public_definition_has_a_caller():
    """Each public definition is referenced outside its own body by the
    package's modules, the demos or the benchmark, or is a
    ``TEST_REFERENCES`` entry.  The match is by identifier, so this is a
    floor: a method named like an attribute in use elsewhere (``.value``,
    ``.verify``) counts as called, whatever object the use is on."""
    used = Counter()
    for path in CALLERS:
        used += _references(ast.parse(path.read_text()))
    unused = {}
    for qual, name, node in _public_definitions():
        if used[name] - _references(node)[name] <= 0:
            unused.setdefault(name, []).append(qual)
    assert {n: q for n, q in unused.items() if n not in TEST_REFERENCES} \
        == {}
    # and the map holds no name that has since gained a caller or gone
    assert sorted(unused) == sorted(TEST_REFERENCES)


@pytest.mark.parametrize("name", sorted(TEST_REFERENCES))
def test_test_references_are_used_by_their_test(name):
    path, cls, func = TEST_REFERENCES[name].split("::")
    tree = ast.parse((ROOT / "tests" / path).read_text())
    (klass,) = [n for n in tree.body
                if isinstance(n, ast.ClassDef) and n.name == cls]
    (test,) = [n for n in klass.body
               if isinstance(n, ast.FunctionDef) and n.name == func]
    assert _references(test)[name] > 0
