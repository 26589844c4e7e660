"""Source hygiene: every name a module imports is used in that module,
every local name a function assigns is read, only the transport manager
names its run state and its forecast's inputs, a line's run shape is asked
of the line, and every function, method and class in src/ is named by the
program."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "transitsim"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import, with its line; ``__future__`` is skipped."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name read anywhere, annotations included, also those written
    as strings."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= referenced_names(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = referenced_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items()
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_scan_sees_annotations_and_flags_dead_names():
    tree = ast.parse("from typing import Optional, Any\nimport os.path\n"
                     "from .x import Y\n"
                     "def f(a: Optional[int]) -> 'Y':\n    return os.sep\n")
    names = imported_names(tree)
    assert set(names) == {"Optional", "Any", "os", "Y"}
    assert sorted(set(names) - referenced_names(tree)) == ["Any"]


def unread_locals(tree: ast.Module) -> list[str]:
    """``function:name (line N)`` for each plain local name a function
    assigns and neither it nor a function nested in it reads; ``_`` and
    names declared ``global`` or ``nonlocal`` are skipped."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read, written, declared = set(), {}, set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                written.setdefault(node.id, node.lineno)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        out += [f"{fn.name}:{name} (line {line})" for name, line in written.items()
                if name not in read and name not in declared and name != "_"]
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_locals(path):
    unread = unread_locals(ast.parse(path.read_text(encoding="utf-8")))
    assert not unread, f"{path.name} assigns names it never reads: {', '.join(unread)}"


def test_scan_flags_an_assigned_name_nobody_reads():
    tree = ast.parse("def f(xs):\n    total = 0\n    header = xs[0]\n"
                     "    for x, _ in xs:\n        total += x\n"
                     "    def g():\n        return seen\n    seen = 1\n"
                     "    return total, g\n")
    assert unread_locals(tree) == ["f:header (line 3)"]


# the transport manager's run state: the per-terminal queues of idle trains
# and waiting slots, the running trains per route, and the last slot started
RUN_STATE = {"pools", "waiting_slots", "active", "dispatched_upto"}
# the forecast's inputs: token issues per station and hour, and the event
# attendees counted as they commit
FORECAST_INPUTS = {"issue_history", "event_riders"}
NOT_TRANSIT = [p for p in sorted(SRC.glob("*.py")) if p.name != "transit.py"]


def attributes_named(tree: ast.Module, names: set[str]) -> list[str]:
    """``attribute (line N)`` for each attribute in ``names`` named."""
    return [f"{node.attr} (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in names]


@pytest.mark.parametrize("path", NOT_TRANSIT, ids=lambda p: p.name)
def test_only_the_transport_manager_names_its_run_state(path):
    named = attributes_named(ast.parse(path.read_text(encoding="utf-8")), RUN_STATE)
    assert not named, f"{path.name} reaches into the transport manager's runs: {', '.join(named)}"


@pytest.mark.parametrize("path", NOT_TRANSIT, ids=lambda p: p.name)
def test_only_the_transport_manager_names_its_forecast_inputs(path):
    named = attributes_named(ast.parse(path.read_text(encoding="utf-8")), FORECAST_INPUTS)
    assert not named, (f"{path.name} reaches into the transport manager's forecast: "
                       f"{', '.join(named)}")


def test_scan_flags_run_state_named_as_an_attribute():
    tree = ast.parse("def f(w, active):\n    w.manager.pools[k].append(1)\n"
                     "    return active, w.active_trips, w.manager.event_riders\n")
    assert attributes_named(tree, RUN_STATE) == ["pools (line 2)"]
    assert attributes_named(tree, FORECAST_INPUTS) == ["event_riders (line 3)"]


# the readers of scenario input build from values that config.py's tables
# have checked and defaulted, so none of them coerces a value or catches
# what a bad one raises
READERS = [("city.py", "network_from_dict"), ("events.py", "generate_events"),
           ("cli.py", "compartments_per_train"), ("cli.py", "build_world")]
COERCIONS = {"int", "float", "bool", "str"}
TRY = tuple(getattr(ast, name) for name in ("Try", "TryStar") if hasattr(ast, name))


def reads_input(node: ast.expr) -> bool:
    """A subscript or a ``.get(...)`` result."""
    return isinstance(node, ast.Subscript) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get")


def coercions(fn: ast.FunctionDef) -> list[str]:
    """``what (line N)`` for each ``try`` block in the function and each
    int, float, bool or str applied to a subscript or a ``.get(...)``
    result, directly or through ``map``, in line order."""
    out = []
    for node in ast.walk(fn):
        if isinstance(node, TRY):
            out.append((node.lineno, "try"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.args:
            name, args = node.func.id, node.args
            if name == "map" and isinstance(args[0], ast.Name) and len(args) > 1:
                name, args = args[0].id, args[1:]
            if name in COERCIONS and reads_input(args[0]):
                out.append((node.lineno, f"{name}()"))
    return [f"{what} (line {line})" for line, what in sorted(out)]


def function(path: Path, name: str) -> ast.FunctionDef:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


@pytest.mark.parametrize("module,name", READERS, ids=[name for _, name in READERS])
def test_scenario_readers_do_not_coerce(module, name):
    found = coercions(function(SRC / module, name))
    assert not found, f"{module}:{name} coerces scenario input: {', '.join(found)}"


def test_scan_flags_coercion_and_try():
    tree = ast.parse("def f(doc, xs):\n    try:\n        n = int(doc['n'])\n"
                     "    except KeyError:\n        n = 0\n"
                     "    s = str(doc.get('s', 'a'))\n    box = list(map(float, doc['b']))\n"
                     "    return n, s, box, int(len(xs)), float(xs)\n")
    assert coercions(tree.body[0]) == ["try (line 2)", "int() (line 3)", "str() (line 6)",
                                       "float() (line 7)"]


# the timetable's formulas live on TransitLine: outside city.py and the
# config tables, no module reads a line's first or last departure or adds
# its run and dwell times
TIMETABLE_HOME = {"city.py", "config.py"}


def addends(node: ast.expr) -> list[ast.expr]:
    """The terms of an addition chain."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return addends(node.left) + addends(node.right)
    return [node]


def timetable_formulas(tree: ast.Module) -> list[str]:
    """``what (line N)`` for each read of ``first_departure`` or
    ``last_departure`` as an attribute and each sum with ``run_seconds``
    and ``dwell_seconds`` attributes among its terms, in line order."""
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr in ("first_departure", "last_departure")):
            out.add((node.lineno, node.attr))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            terms = {t.attr for t in addends(node) if isinstance(t, ast.Attribute)}
            if {"run_seconds", "dwell_seconds"} <= terms:
                out.add((node.lineno, "run_seconds + dwell_seconds"))
    return [f"{what} (line {line})" for line, what in sorted(out)]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name not in TIMETABLE_HOME], ids=lambda p: p.name)
def test_only_the_line_works_out_its_timetable(path):
    found = timetable_formulas(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name} works out the timetable itself: {', '.join(found)}"


def test_scan_flags_terminal_times_and_pass_steps():
    tree = ast.parse("def f(line, svc, k):\n    a = svc.last_departure + k\n"
                     "    b = k * (svc.run_seconds + svc.dwell_seconds)\n"
                     "    c = svc.run_seconds + k + line.service.dwell_seconds\n"
                     "    d = svc.run_seconds * 2 + svc.dwell_seconds + svc.headway_seconds\n"
                     "    svc.first_departure = 0\n"
                     "    return a, b, c, d, svc['first_departure']\n")
    assert timetable_formulas(tree) == ["last_departure (line 2)",
                                        "run_seconds + dwell_seconds (line 3)",
                                        "run_seconds + dwell_seconds (line 4)"]


# a run's shape is laid out once, in TransitLine's run table: outside
# city.py, no module asks whether a line is a loop


def circular_reads(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing ``Class.function``, line) for each read of a ``.circular``
    attribute, in source order; ``<module>`` outside any definition."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "circular"
                    and isinstance(child.ctx, ast.Load)):
                out.append((".".join(scope) or "<module>", child.lineno))
            visit(child, scope)

    visit(tree, [])
    return out


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "city.py"],
                         ids=lambda p: p.name)
def test_only_the_line_lays_out_its_runs(path):
    found = [f"{where} (line {line})"
             for where, line in circular_reads(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, f"{path.name} asks whether a line is a loop: {', '.join(found)}"


def test_scan_flags_circular_reads_by_their_function():
    tree = ast.parse("class M:\n    def __init__(self, line):\n"
                     "        ends = [1] if line.circular else [1, 2]\n"
                     "        line.circular = False\n"
                     "    def size(self, doc):\n        return doc['circular']\n"
                     "def f(lines):\n    def g(l):\n        return l.circular\n"
                     "    return [g(l) for l in lines]\n"
                     "LOOPS = [l for l in LINES if l.circular]\n")
    assert circular_reads(tree) == [("M.__init__", 3), ("f.g", 9), ("<module>", 11)]


# every function, method and class in src/ is named by the program: by
# src/, the demos or the benchmark, whose tracer wraps some by string.
# References that only the tests compare against live in tests/oracles.py.
PROGRAM = [SRC, SRC.parents[1] / "demos", SRC.parents[1] / "perfbench"]
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def named(tree: ast.Module) -> set[str]:
    """Every identifier, attribute and imported name the module uses, and
    each part of a string that is a name or a dotted path of names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED_NAME.fullmatch(node.value)):
            out.update(node.value.split("."))
    return out


def definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(``Class.function`` path, line) of each function, method and class
    but dunder methods, in source order."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    out.append((".".join(scope + [child.name]), child.lineno))
                visit(child, scope + [child.name])

    visit(tree, [])
    return out


def unnamed_definitions(trees: dict[str, ast.Module],
                        users: list[ast.Module]) -> list[tuple[str, str, int]]:
    """(module, path, line) for each definition in ``trees`` whose own name
    no module in ``users`` uses."""
    used = set().union(*(named(tree) for tree in users))
    return [(module, path, line) for module, tree in trees.items()
            for path, line in definitions(tree) if path.rsplit(".", 1)[-1] not in used]


def test_everything_in_src_is_named_by_the_program():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    users = [ast.parse(p.read_text(encoding="utf-8"))
             for root in PROGRAM for p in sorted(root.glob("*.py"))]
    found = [f"{module}:{path} (line {line})"
             for module, path, line in unnamed_definitions(trees, users)]
    assert not found, f"only the tests name: {', '.join(found)}"


def test_scan_flags_a_definition_nothing_names():
    tree = ast.parse('import a.b\nclass C:\n    def __init__(self):\n        self.go()\n'
                     '    def go(self):\n        return helper\n'
                     '    def spare(self):\n        """spare is only in a docstring"""\n'
                     'def helper():\n    def inner():\n        pass\n'
                     'class Wrapped:\n    pass\n'
                     'def traced():\n    pass\n'
                     'def b():\n    pass\n')
    user = ast.parse("wrap(mod, 'traced', 'mod.Wrapped')\n")
    assert unnamed_definitions({"m.py": tree}, [tree, user]) == [
        ("m.py", "C", 2), ("m.py", "C.spare", 7), ("m.py", "helper.inner", 10)]
