"""Purity rules (the ``purity-*`` family).

* ``purity-mutable-default`` (repo-wide) — a mutable default argument
  (``def f(x=[])``) is shared across calls; the classic aliasing trap.
* ``purity-config-field`` (``src/``) — fields of config dataclasses
  (``*Config`` names) must be JSON-round-trippable: ``config_hash``
  canonicalizes ``to_dict()`` output, so a field that cannot survive
  JSON breaks the dedup/journal contract silently.
* ``purity-telemetry-field`` (``src/``) — telemetry travels BY
  REFERENCE (PR 9): a ``Telemetry``/``Tracer``/``MetricsRegistry``
  object on a ``*Config`` or ``*Task`` dataclass would ride into
  ``config_hash`` and the job manager's dedup index.
  Annotations are the statically visible surface of that contract.
* ``purity-config-import`` (``src/repro/core/config.py``) — the config
  layer never imports ``repro.telemetry``.
* ``purity-oracle-import`` (``src/``) — the package never imports the
  test suite: ``tests``, ``conftest`` or a ``reference_*`` oracle
  module. Those import only because ``tests/conftest.py`` puts
  ``tests/`` on ``sys.path``, so such an import passes under pytest and
  breaks ``import repro`` everywhere else.
"""

from __future__ import annotations

import ast

from tools.reprolint.core import ModuleContext, Rule

__all__ = ["RULES"]

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque"}

_JSON_SCALARS = {"int", "float", "str", "bool", "None", "NoneType"}
_JSON_CONTAINERS = {
    "tuple",
    "list",
    "dict",
    "Tuple",
    "List",
    "Dict",
    "Optional",
    "Union",
    "Sequence",
    "Mapping",
    "FrozenSet",
    "frozenset",
}

_TELEMETRY_TYPES = {"Telemetry", "Tracer", "MetricsRegistry", "Span", "NullTelemetry"}


def _annotation_names(node: ast.expr):
    """Leaf names of an annotation (handles strings, subscripts, | unions)."""
    if isinstance(node, ast.Constant):
        if node.value is None:
            yield "None"
        elif isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                yield node.value
            else:
                yield from _annotation_names(parsed.body)
        return
    if isinstance(node, ast.Name):
        yield node.id
        return
    if isinstance(node, ast.Attribute):
        yield node.attr
        return
    if isinstance(node, ast.Subscript):
        yield from _annotation_names(node.value)
        yield from _annotation_names(node.slice)
        return
    if isinstance(node, ast.Tuple):
        for elt in node.elts:
            yield from _annotation_names(elt)
        return
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        yield from _annotation_names(node.left)
        yield from _annotation_names(node.right)
        return
    if isinstance(node, ast.Constant) and node.value is Ellipsis:
        return


def _json_clean(annotation: ast.expr) -> bool:
    names = [
        name
        for name in _annotation_names(annotation)
        if name not in ("...", "Ellipsis")
    ]
    if not names:
        return True
    # A nested `*Config` dataclass serializes through its own to_dict(),
    # so it is JSON-clean by recursion (its fields get their own check).
    return all(
        name in _JSON_SCALARS
        or name in _JSON_CONTAINERS
        or name.endswith("Config")
        for name in names
    )


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _config_classes(ctx: ModuleContext):
    """Dataclasses participating in the config contract: ``*Config``
    names."""
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.ClassDef)
            and node.name.endswith("Config")
            and _is_dataclass(node)
        ):
            yield node


class MutableDefaultRule(Rule):
    name = "purity-mutable-default"
    summary = "no mutable default arguments"

    def check(self, ctx: ModuleContext):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                    kind = type(default).__name__.lower()
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default argument ({kind} literal) is "
                        "shared across calls; default to None and build "
                        "inside the function",
                    )
                elif (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in _MUTABLE_CALLS
                ):
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default argument ({default.func.id}()) is "
                        "shared across calls; default to None and build "
                        "inside the function",
                    )


class ConfigFieldTypeRule(Rule):
    name = "purity-config-field"
    summary = "config dataclass fields must be JSON-round-trippable"

    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.in_source_tree

    def check(self, ctx: ModuleContext):
        for cls in _config_classes(ctx):
            for stmt in cls.body:
                if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                    stmt.target, ast.Name
                ):
                    continue
                if stmt.target.id.startswith("_"):
                    continue
                if isinstance(stmt.annotation, ast.Name) and stmt.annotation.id == "ClassVar":
                    continue
                if (
                    isinstance(stmt.annotation, ast.Subscript)
                    and "ClassVar" in set(_annotation_names(stmt.annotation.value))
                ):
                    continue
                if not _json_clean(stmt.annotation):
                    rendered = ast.unparse(stmt.annotation)
                    yield self.finding(
                        ctx,
                        stmt,
                        f"{cls.name}.{stmt.target.id}: {rendered} does not "
                        "survive a JSON round trip; config_hash and the "
                        "journal canonicalize configs through to_dict()",
                    )


class TelemetryFieldRule(Rule):
    name = "purity-telemetry-field"
    summary = "no telemetry objects on *Config / *Task dataclasses"

    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.in_source_tree

    def check(self, ctx: ModuleContext):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not (node.name.endswith("Config") or node.name.endswith("Task")):
                continue
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                    stmt.target, ast.Name
                ):
                    continue
                names = set(_annotation_names(stmt.annotation))
                hit = names & _TELEMETRY_TYPES
                if hit:
                    yield self.finding(
                        ctx,
                        stmt,
                        f"{node.name}.{stmt.target.id} carries a telemetry "
                        f"object ({', '.join(sorted(hit))}); telemetry "
                        "travels by reference, never inside configs or "
                        "task payloads (PR 9 purity contract)",
                    )


class ConfigTelemetryImportRule(Rule):
    name = "purity-config-import"
    summary = "core/config.py must not import repro.telemetry"

    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.path == "src/repro/core/config.py"

    def check(self, ctx: ModuleContext):
        for node in ast.walk(ctx.tree):
            imported = ""
            if isinstance(node, ast.Import):
                imported = ",".join(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported = node.module or ""
            if "telemetry" in imported:
                yield self.finding(
                    ctx,
                    node,
                    "the config layer must stay telemetry-free so "
                    "config_hash can never observe instrumentation",
                )


def _is_test_module(name: str) -> bool:
    """``tests``/``conftest`` packages and ``reference_*`` oracles."""
    top = name.split(".")[0]
    leaf = name.split(".")[-1]
    return top in ("tests", "conftest") or leaf.startswith("reference_")


class OracleImportRule(Rule):
    name = "purity-oracle-import"
    summary = "src/ never imports tests, conftest or a reference_* oracle"

    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.in_source_tree

    def check(self, ctx: ModuleContext):
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                names = [module] + [
                    f"{module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            hits = sorted({name for name in names if _is_test_module(name)})
            if hits:
                yield self.finding(
                    ctx,
                    node,
                    f"imports test-suite code ({', '.join(hits)}); it "
                    "resolves only under pytest, which puts tests/ on "
                    "sys.path, so `import repro` breaks everywhere else",
                )


RULES = [
    MutableDefaultRule,
    ConfigFieldTypeRule,
    TelemetryFieldRule,
    ConfigTelemetryImportRule,
    OracleImportRule,
]
