"""Every public function, class and method of the package has a caller
outside the tests, and no module of the package imports itself through
others.

A public name (no leading underscore) defined at the top level of a
``src/loadcast`` module, or as a method of a top-level class, must appear in
``src/``, ``demos/`` or ``perfbench/`` somewhere other than a line that
defines it.  API that only tests reach is dead weight: delete it, or make it
private and call it from the tests as such.

An import cycle, even one broken by an import inside a function, means two
modules each own part of one decision; move the shared part to one of them.

YAML is read only through ``frames.read_yaml``, which picks libyaml's parser
when it is there and turns malformed YAML into a usage error; a second
``yaml.load`` or ``yaml.safe_load`` would skip both.

CSV is read and written only in ``frames``: ``load_csv`` reads it, and
``write_series`` and ``write_table`` write it.  A second module importing
``csv`` would format cells by rules of its own.

Random numbers come from ``numpy.random``'s public generators.  Nothing
imports ``numpy.random.bit_generator``, whose seeding internals a module
would otherwise copy and have to keep equal to numpy's by hand.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "loadcast"
SEARCHED = ("src", "demos", "perfbench")

# kept without a caller: the finite-difference instrument of acceptance
# criterion 1, and the scaler's reader for run directories that store it
ALLOWED = {"finite_diff_check", "from_dict"}


def public_definitions():
    """``{name: [(file, line), ...]}`` of public top-level functions and
    classes and the public methods of top-level classes."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        nodes = list(tree.body)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                nodes += node.body
        for node in nodes:
            kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            if isinstance(node, kinds) and not node.name.startswith("_"):
                found.setdefault(node.name, []).append((path, node.lineno))
    return found


def searched_lines():
    """``(file, line number, text)`` of every source and script line."""
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix in (".py", ".sh") and path.is_file():
                for number, text in enumerate(path.read_text().splitlines(), 1):
                    yield path, number, text


def test_every_public_name_has_a_caller_outside_tests():
    definitions = public_definitions()
    lines = list(searched_lines())
    unused = []
    for name, places in sorted(definitions.items()):
        if name in ALLOWED:
            continue
        own = set(places)
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(
            (path, number) not in own and word.search(text)
            for path, number, text in lines
        ):
            unused.append(f"{name} ({places[0][0].name}:{places[0][1]})")
    assert unused == [], f"public names reached only by tests: {unused}"


def test_the_allowlist_names_existing_definitions():
    assert ALLOWED <= set(public_definitions())


def relative_imports():
    """``{module: {modules it imports}}`` over every relative import in
    ``src/loadcast``, those inside functions included."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        targets = graph.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:  # from . import a, b
                    targets.update(alias.name for alias in node.names)
                else:
                    targets.add(node.module.split(".")[0])
    return graph


def import_cycles(graph):
    """Every simple cycle, as its modules from the alphabetically first one
    round to it again."""
    cycles = []

    def walk(path):
        for nxt in sorted(graph.get(path[-1], ())):
            if nxt == path[0]:
                cycles.append(" → ".join(path + [nxt]))
            elif nxt > path[0] and nxt not in path:
                walk(path + [nxt])

    for start in sorted(graph):
        walk([start])
    return cycles


def test_cycle_search_names_each_cycle_once():
    graph = {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}, "d": {"d"}}
    assert import_cycles(graph) == ["a → b → a", "b → c → b", "d → d"]


def test_no_import_cycles():
    graph = relative_imports()
    assert "training" in graph["cli"]  # the walk sees the package's imports
    cycles = import_cycles(graph)
    assert cycles == [], f"import cycles: {cycles}"


YAML_READERS = {"load", "safe_load", "full_load", "unsafe_load",
                "load_all", "safe_load_all", "full_load_all", "unsafe_load_all"}


def yaml_reads():
    """``module.function`` of every call of a ``yaml`` reader in
    ``src/loadcast``, and of every import of one by name."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for node in ast.walk(tree):  # outer functions come first
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    owner.setdefault(inner, node.name)
        for node in ast.walk(tree):
            where = f"{path.stem}.{owner.get(node, '<module>')}"
            if isinstance(node, ast.ImportFrom) and node.module == "yaml":
                found += [where for alias in node.names if alias.name in YAML_READERS]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "yaml"
                and node.func.attr in YAML_READERS
            ):
                found.append(where)
    return found


def test_yaml_is_read_in_one_place():
    assert yaml_reads() == ["frames.read_yaml"]


def importers(module):
    """Modules of ``src/loadcast`` that import ``module`` or a name in it,
    at any level."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(name == module or name.startswith(f"{module}.") for name in names):
                found.add(path.stem)
    return sorted(found)


def test_csv_is_formatted_in_one_module():
    assert importers("csv") == ["frames"]


def test_no_module_reaches_into_numpys_seeding():
    assert importers("numpy.random.bit_generator") == []
