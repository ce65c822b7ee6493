import ast
import dataclasses
import types
from pathlib import Path

import qpencil

ROOT = Path(__file__).resolve().parents[1]


def test_all_lists_exactly_the_public_names():
    assert all(hasattr(qpencil, name) for name in qpencil.__all__)
    assert len(set(qpencil.__all__)) == len(qpencil.__all__)
    public = {
        name
        for name, value in vars(qpencil).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(qpencil.__all__)


def test_the_exact_layer_exports_no_scalar_type():
    # the exact layer's one scalar form is the (re, im) pair
    exact = {n for n in qpencil.__all__ if getattr(qpencil, n).__module__ == "qpencil.exact"}
    assert exact == {
        "ExactMatrix", "Ray", "commutator_is_zero", "inner_product", "is_product_state"
    }


def _references(path: Path, attributes_only: bool = False) -> set[str]:
    """The names that a file's code reads, as names, attributes or string
    constants (perfbench binds the layers it traces by name), or as attributes
    alone, leaving out each function's or class's references to itself from
    inside its own body."""
    found = set()

    def walk(node, inside: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = (
            node.attr if isinstance(node, ast.Attribute)
            else None if attributes_only
            else node.id if isinstance(node, ast.Name)
            else node.value if isinstance(node, ast.Constant) and type(node.value) is str
            else None
        )
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(ast.parse(path.read_text()), frozenset())
    return found


def _read_outside_the_tests(attributes_only: bool = False) -> set[str]:
    """The names read by the package's modules, the demos and non-test perfbench code."""
    users = [p for p in (ROOT / "src" / "qpencil").glob("*.py") if p.name != "__init__.py"]
    users += ROOT.joinpath("demos").glob("*.py")
    users += (p for p in ROOT.joinpath("perfbench").glob("*.py") if not p.name.startswith("test_"))
    return set().union(*(_references(p, attributes_only) for p in users))


def test_every_public_name_has_a_user_outside_the_tests():
    # a name only tests call belongs in tests/_oracles.py, not in the package
    assert sorted(set(qpencil.__all__) - _read_outside_the_tests()) == []


def test_every_public_method_has_a_user_outside_the_tests():
    # the same rule for the public methods and properties of the exported
    # classes; dataclass fields are data, not methods. A method is read as an
    # attribute, so a local variable of the same name does not count
    used = _read_outside_the_tests(attributes_only=True)
    unread = []
    for name in qpencil.__all__:
        cls = getattr(qpencil, name)
        if isinstance(cls, type):
            fields = dataclasses.fields(cls) if dataclasses.is_dataclass(cls) else ()
            unread += [f"{name}.{m}" for m in vars(cls) if not m.startswith("_")
                       and m not in {f.name for f in fields} and m not in used]
    assert unread == []


def _top_level_names(path: Path):
    """The names a module binds at its top level: functions, classes and constants."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_every_public_module_level_name_has_a_user_outside_the_tests():
    # the same rule for every public function, class and constant that a
    # module defines, exported or not
    used = _read_outside_the_tests()
    modules = [p for p in sorted((ROOT / "src" / "qpencil").glob("*.py"))
               if p.name not in {"__init__.py", "__main__.py"}]
    unread = [f"{p.stem}.{name}" for p in modules for name in _top_level_names(p)
              if not name.startswith("_") and name not in used]
    assert unread == []
