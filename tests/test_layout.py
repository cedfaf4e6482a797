"""Structural check: each source family keeps its operations on its classes.

The per-family operations (draws, invariant and initial beliefs, the
filter's push through the transition kernel, the stage-cost floor,
realized-cost state values) are methods of LinearGaussianSource and
FiniteChain, and the belief-only ones (description, moments, the
restriction to a cell, log row) methods of GridBelief and SimplexBelief.
So no module of the package should ask which family it holds. This test walks src/zdq/*.py with ast and fails on every type
probe of those classes outside ALLOWED: an isinstance, issubclass,
hasattr or getattr call, a comparison with type(...), or a class pattern
of a match statement, that names one of them, require_noise or
belief_type.

A second walk fails when beliefs.py reads an attribute of a source
(model) outside the one function that needs it: belief_type in
_check_pair, push in filter_update and stationary_std in default_grid,
or when another of its functions takes a source. The transition kernel,
its products and everything else that reads the source's parameters
stay in sources.py.

A third walk fails on every square taken with ** in src/zdq outside
oracles.py: a square is the product x * x, which IEEE 754 rounds
correctly, where float ** calls the C library's pow, whose rounding
differs between libraries.

A fourth walk fails on every name of a module's __all__ that no package
code reads outside the name's own definition: the package holds what
its tasks run, and references that only tests call live in tests/.
__init__.py is not such a module: its __all__ gathers the modules'
lists and the version.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "zdq"

NAMES = {
    "GridBelief",
    "SimplexBelief",
    "LinearGaussianSource",
    "FiniteChain",
    "require_noise",
    "belief_type",
}
PROBE_CALLS = {"isinstance", "issubclass", "hasattr", "getattr"}

# (module, innermost enclosing function) -> why it may probe; None
# stands for every function of the module
ALLOWED = {
    ("config.py", None): "config parsing checks that a config's parts fit its source",
    ("oracles.py", None): "the oracles stay independent of the solver on purpose",
    ("costs.py", "_tabular_cells"): "tabular costs are defined on finite alphabets only",
    ("beliefs.py", "_check_pair"): "the one check that a belief fits its source",
}


def _names(node) -> set:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found & NAMES


def _is_call_to(node, names) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in names
    )


def _probes(tree):
    """(line, innermost enclosing function or None) of every type probe."""
    out = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        probe = (
            (_is_call_to(node, PROBE_CALLS) and _names(node))
            or (
                isinstance(node, ast.Compare)
                and any(_is_call_to(side, {"type"}) for side in [node.left, *node.comparators])
                and _names(node)
            )
            or (isinstance(node, ast.MatchClass) and _names(node.cls))
        )
        if probe:
            out.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return out


def _scan():
    allowed, offending = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, function in _probes(tree):
            where = f"{path.name}:{line} ({function})"
            if (path.name, None) in ALLOWED or (path.name, function) in ALLOWED:
                allowed.append(where)
            else:
                offending.append(where)
    return allowed, offending


def test_no_family_probes_outside_the_allow_list():
    allowed, offending = _scan()
    assert offending == []
    # the walker does see probes: config parsing has several
    assert any(where.startswith("config.py:") for where in allowed)


# attribute of a source that beliefs.py reads -> the one function that
# reads it, and the only functions there that take a source
SOURCE_READS = {
    "belief_type": "_check_pair",
    "push": "filter_update",
    "stationary_std": "default_grid",
}


def _source_reads():
    """(attribute, function) of every read of model.<attribute> in
    beliefs.py, and the names of its functions that take a model."""
    tree = ast.parse((SRC / "beliefs.py").read_text())
    reads, takers = set(), set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = function.args
        if "model" in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]:
            takers.add(function.name)
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "model"
            ):
                reads.add((node.attr, function.name))
    return reads, takers


def test_beliefs_read_the_source_in_three_places_only():
    reads, takers = _source_reads()
    assert reads - set(SOURCE_READS.items()) == set()
    assert takers - set(SOURCE_READS.values()) == set()
    # the walker does see reads: filter_update pushes through the source
    assert ("push", "filter_update") in reads


def _squares_by_pow():
    """path name:line of every x ** 2 (or x **= 2) in src/zdq/*.py."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.BinOp):
                exponent = node.right
            elif isinstance(node, ast.AugAssign):
                exponent = node.value
            else:
                continue
            if (
                isinstance(node.op, ast.Pow)
                and isinstance(exponent, ast.Constant)
                and exponent.value == 2
            ):
                out.append(f"{path.name}:{node.lineno}")
    return out


def test_squares_are_products_outside_the_oracles():
    found = _squares_by_pow()
    # the oracles square with ** on purpose: their independence is the point
    assert [w for w in found if not w.startswith("oracles.py:")] == []
    # the walker does see squares: brute_force_finite's cell cost has one
    assert any(w.startswith("oracles.py:") for w in found)


def _definition_spans(tree) -> dict:
    """name -> (first line, last line) of each module-level def or class."""
    return {
        node.name: (node.lineno, node.end_lineno)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def _exported(tree) -> list:
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
            and isinstance(node.value, ast.List)
        ):
            return [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    return []


def _unread_exports():
    """module:name of every __all__ name that no package code reads
    (as a name or an attribute) outside its own definition."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    reads = []  # (module, line, name)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                reads.append((module, node.lineno, node.attr))
    out = []
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        spans = _definition_spans(tree)
        for name in _exported(tree):
            lo, hi = spans.get(name, (0, -1))
            if not any(
                read == name and not (where == module and lo <= line <= hi)
                for where, line, read in reads
            ):
                out.append(f"{module}:{name}")
    return out


def test_every_public_name_is_read_by_the_package():
    assert _unread_exports() == []
    # the walker does see exports: every module but cli.py has some
    assert sum(1 for path in SRC.glob("*.py") if _exported(ast.parse(path.read_text()))) >= 8
