"""The design rules CI greps for, checked on the syntax tree of ``src/``.

Each rule names the one module allowed to do a thing; the CI job greps the
text for the same rules.  Walking the tree checks calls, imports and names
instead, so a comment or a docstring cannot trip a rule, and a local test
run catches a breach before CI does:

* one LRU: only ``cache.py`` uses ``OrderedDict``, ``move_to_end`` or
  ``popitem(last=False)``;
* one graph switch: only ``core/rulegoal.py`` takes ``coalesce`` (as a
  keyword, a parameter or the ``--coalesce`` flag);
* one collector switch: only ``network/engine.py`` calls ``gc.disable``,
  ``gc.enable``, ``gc.freeze`` or ``gc.set_threshold``;
* one row-batch type: no ``TupleSet`` is built from a ``frozenset``;
* one program parser: only ``core/parser.py`` names ``_tokenize`` or
  ``_Parser``;
* one hold rule: the delivery loop's module names no ``EndRequest``,
  ``held`` or ``account_hold`` (``network/termination.py`` holds);
* one delivery loop: only ``network/shard_loop.py`` calls a process's
  ``handle`` or ``on_idle_check``, and nothing under ``network/`` imports
  ``heapq``.

A last check keeps the layering the loop's move relies on: nothing under
``network/`` imports from ``runtime/`` or ``cluster/``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CACHE = "repro/cache.py"
RULEGOAL = "repro/core/rulegoal.py"
ENGINE = "repro/network/engine.py"
PARSER = "repro/core/parser.py"
LOOP = "repro/network/shard_loop.py"


def modules() -> dict[str, ast.Module]:
    """Every module under ``src/``, parsed, by path relative to ``src/``."""
    return {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_text(), str(path))
        for path in sorted(SRC.rglob("*.py"))
    }


MODULES = modules()


def names(tree: ast.AST):
    """Every identifier a module binds or reads, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.arg):
            yield node.arg, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1], node.lineno
                if alias.asname:
                    yield alias.asname, node.lineno


def calls(tree: ast.AST):
    """Every call: ``(callee name, call node)``; an attribute call is named
    by its attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id, node
            elif isinstance(func, ast.Attribute):
                yield func.attr, node


def imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module, node.lineno


def breaches(check, allowed=()) -> list[str]:
    found = []
    for path, tree in MODULES.items():
        if path in allowed:
            continue
        found += [f"{path}:{line}: {what}" for what, line in check(tree)]
    return found


def test_the_named_modules_exist():
    for path in (CACHE, RULEGOAL, ENGINE, PARSER, LOOP):
        assert path in MODULES, f"src/{path} is missing"


def test_one_lru():
    def check(tree):
        for name, line in names(tree):
            if name == "OrderedDict":
                yield name, line
        for name, call in calls(tree):
            if name == "move_to_end":
                yield name, call.lineno
            if name == "popitem" and any(
                k.arg == "last" and isinstance(k.value, ast.Constant) and k.value.value is False
                for k in call.keywords
            ):
                yield "popitem(last=False)", call.lineno

    assert breaches(check, {CACHE}) == []


def test_one_graph_switch():
    def check(tree):
        for _, call in calls(tree):
            if any(k.arg == "coalesce" for k in call.keywords):
                yield "coalesce=", call.lineno
        for node in ast.walk(tree):
            if isinstance(node, ast.arg) and node.arg == "coalesce":
                yield "coalesce parameter", node.lineno
            if isinstance(node, ast.Constant) and node.value == "--coalesce":
                yield "--coalesce", node.lineno

    assert breaches(check, {RULEGOAL}) == []


def test_one_collector_switch():
    switches = {"disable", "enable", "freeze", "set_threshold"}

    def check(tree):
        for name, call in calls(tree):
            func = call.func
            if (
                name in switches
                and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "gc"
            ):
                yield f"gc.{name}()", call.lineno
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                for alias in node.names:
                    if alias.name in switches:
                        yield f"from gc import {alias.name}", node.lineno

    assert breaches(check, {ENGINE}) == []


def test_one_row_batch_type():
    def check(tree):
        for name, call in calls(tree):
            if name != "TupleSet":
                continue
            arguments = [*call.args, *(k.value for k in call.keywords)]
            for argument in arguments:
                if any(inner == "frozenset" for inner, _ in calls(argument)):
                    yield "TupleSet(frozenset(...))", call.lineno

    assert breaches(check) == []


def test_one_program_parser():
    def check(tree):
        for name, line in names(tree):
            if name in ("_tokenize", "_Parser"):
                yield name, line

    assert breaches(check, {PARSER}) == []


def test_one_hold_rule():
    held = [
        f"src/{LOOP}:{line}: {name}"
        for name, line in names(MODULES[LOOP])
        if name in ("EndRequest", "held", "account_hold")
    ]
    assert held == []


def test_one_delivery_loop():
    def delivers(tree):
        for name, call in calls(tree):
            if name in ("handle", "on_idle_check") and isinstance(call.func, ast.Attribute):
                yield f".{name}()", call.lineno

    assert breaches(delivers, {LOOP}) == []
    assert list(delivers(MODULES[LOOP]))

    def heaps(tree):
        for module, line in imported_modules(tree):
            if module == "heapq":
                yield "import heapq", line

    network = {path for path in MODULES if not path.startswith("repro/network/")}
    assert breaches(heaps, network) == []


def test_network_imports_nothing_from_runtime():
    def check(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                relative = node.level > 0 and module.split(".")[0] in ("runtime", "cluster")
                if relative or module.startswith(("repro.runtime", "repro.cluster")):
                    yield f"import from {module}", node.lineno
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith(("repro.runtime", "repro.cluster")):
                        yield f"import {alias.name}", node.lineno

    others = {path for path in MODULES if not path.startswith("repro/network/")}
    assert breaches(check, others) == []
