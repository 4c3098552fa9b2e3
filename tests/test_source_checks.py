"""Static checks on the package source."""

import ast
import importlib
import importlib.util
from pathlib import Path

import toralconj
from toralconj import exact_linalg as xl

SRC = Path(toralconj.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent

# Definitions that only the tests name: elements enumerates a module,
# solve_left is a lattice oracle; iota and gamma_action are the paper's
# coherent-element API.
NAMED_ONLY_BY_TESTS = {"elements", "solve_left", "iota", "gamma_action"}


def _called_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            names.add(f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None))
    return names


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_based_runtime_checks():
    # `assert` vanishes under `python -O`, and an AssertionError escapes the
    # CLI as a traceback; runtime checks raise InternalInconsistencyError.
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion_error(node)
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


def test_only_bf_invariants_evaluates_polynomials_at_matrices():
    # BF_g(A) = Z^n / Z^n g(A) has one builder, bf_invariants.bf_group;
    # everything else (tower levels, the tower screen, witness re-checks)
    # gets its modules from there.
    callers = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name == "eval_poly_at_matrix":
                    callers.add(path.name)
    assert callers == {"bf_invariants.py"}


def test_only_the_screen_and_decide_compare_modules():
    # one comparison of two BF quotients: strong_bf_screen runs
    # module_iso_exists, which decide also calls on its witnesses, and the
    # tower reads the screen's records; invariant_mismatch is no second one
    callers = {}
    for path in sorted(SRC.rglob("*.py")):
        for name in _called_names(ast.parse(path.read_text(), filename=str(path))):
            callers.setdefault(name, set()).add(path.name)
    assert callers.get("module_iso_exists") == {"bf_invariants.py", "conjugacy_pipeline.py"}
    assert "invariant_mismatch" not in callers


def test_finite_modules_inverts_no_matrix_outside_the_smith_form():
    # snf returns V with its exact inverse, so quotient and the hom
    # lattice build their coordinates without a second inversion
    tree = ast.parse((SRC / "finite_modules.py").read_text())
    assert not _called_names(tree) & {"unimodular_inverse", "adjugate"}


def test_quotient_tests_membership_with_the_smith_form_only():
    # the verified Smith form presents the relation lattice, so quotient
    # computes no second normal form of it
    tree = ast.parse((SRC / "finite_modules.py").read_text())
    (quotient,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "quotient"
    ]
    called = _called_names(quotient)
    assert "snf" in called
    assert not called & {"hnf", "hnf_basis", "lattice_membership"}


def test_only_cyclotomic_factors_in_polys():
    # integer roots and quadratic factors come from bisection and the
    # resolvent cubic, so irreducibility factors nothing; only the divisors
    # of d that Phi_d divides out still need a factorization
    tree = ast.parse((SRC / "polys.py").read_text())
    factoring = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and _called_names(node) & {"divisors", "factorint"}
    }
    assert factoring == {"cyclotomic"}


def test_pipeline_does_not_search_the_pair_lattices():
    # classify_delta searches the intertwiner lattice that unimodular_search
    # has already searched with the same bound and shell order, and a level
    # isomorphism family refutes only where the BF screen over the tower
    # polynomials does, so decide builds no tower and takes only
    # tower_polynomials from the tower module, and its depth check for the
    # config.
    tree = ast.parse((SRC / "conjugacy_pipeline.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not names & {"classify_delta", "delta_lattice", "build_tower", "level_iso_family"}
    from_tower = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "tower"
        for alias in node.names
    }
    assert from_tower == {"tower_polynomials", "_check_depth"}


def _users():
    """The files whose use keeps a definition alive: the package but its
    re-exports, the scripts and the benchmark's tracer."""
    package = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    return package + sorted((ROOT / "scripts").rglob("*.py")) + [ROOT / "decidebench" / "layertrace.py"]


def _mentioned_names(tree):
    """Names, attributes, import aliases and identifier strings (the
    benchmark's tracer looks functions up by their names)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value


def test_every_definition_is_named_outside_the_tests():
    # a function or class that nothing but its own unit tests reaches is
    # deleted.  A method counts as used only where an attribute of its name
    # is read, so a local variable of the same name does not keep it alive;
    # the check still goes by name, so it misses a dead method that shares
    # its name with a live one, such as a to_data.  A re-export in
    # __init__.py is not a use.
    package = sorted(SRC.rglob("*.py"))
    mentioned, attributes = set(), set()
    for path in _users():
        tree = ast.parse(path.read_text(), filename=str(path))
        mentioned.update(_mentioned_names(tree))
        attributes.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    unnamed = []
    for path in package:
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("__")
                and node.name not in (attributes if id(node) in owner else mentioned) | NAMED_ONLY_BY_TESTS
            ):
                name = f"{owner[id(node)]}.{node.name}" if id(node) in owner else node.name
                unnamed.append(f"{path.name}:{node.lineno} {name}")
    assert not unnamed


def _is_dataclass(node):
    decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(getattr(d, "id", None) == "dataclass" for d in decorators)


def test_every_dataclass_field_is_read_outside_the_tests():
    # a field that nothing reads is deleted with the code that fills it.  A
    # field counts as read only where an attribute of its name is loaded; the
    # check goes by name, so it misses a dead field that shares its name with
    # a live attribute elsewhere, such as a kind.
    read = set()
    for path in _users():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [
        f"{path.name} {cls.name}.{field.target.id}"
        for path in sorted(SRC.rglob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for field in cls.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and field.target.id not in read
    ]
    assert not unread


def _load_layertrace():
    path = ROOT / "decidebench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_every_traced_function():
    # the benchmark's traced round looks each function up by name in its
    # module, so a deleted or renamed one fails here before it fails there
    layertrace = _load_layertrace()
    missing = [
        f"{layer}.{func}"
        for layer, funcs in layertrace.LAYERS.items()
        for func in funcs
        if not callable(getattr(importlib.import_module(f"toralconj.{layer}"), func, None))
    ]
    assert not missing
    # max_entry_bits unpacks the (H, U) pair that hnf returns
    M = ((4, 6, 3), (2, -5, 7))
    H, U = xl.hnf(M)
    assert all(isinstance(X, tuple) and all(isinstance(r, tuple) for r in X) for X in (H, U))
    assert layertrace.EXTRAS["max_entry_bits"]((M,), xl.hnf(M)) == layertrace._entry_bits(M, H, U)
