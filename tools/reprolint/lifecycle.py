"""Resource-lifecycle rules (the ``lifecycle-*`` family).

The project pass collects every class in ``src/`` that defines or
inherits ``close()`` — the executors, FlatGossipSimulator, Study,
JobManager, JobJournal, StudyService. Instantiating one takes on a
release obligation (a dropped JobManager or StudyService leaks its
worker threads and journal file; PR 4's shared-memory segments, since
removed, leaked into ``/dev/shm``), so
``lifecycle-unmanaged`` flags a bare constructor call unless the
obligation is visibly discharged or handed off:

* ``with X(...)`` (directly or via ``closing(...)``/``ExitStack``);
* the bound name is ``.close()``d in a ``finally`` block, registered
  with ``weakref.finalize``/``addCleanup``/``addfinalizer``, or
  ``yield``ed / ``return``ed (pytest fixtures and factories hand the
  obligation to their caller);
* the value is returned, yielded, passed into another call, or stored
  on an attribute (the receiving object owns it now);
* test modules only: a plain later ``name.close()`` in the same scope
  also counts — tests exercise failure paths on purpose and pytest
  reports the exception either way.

Anything else needs an inline suppression stating why the leak is
impossible.
"""

from __future__ import annotations

import ast

from tools.reprolint.core import ModuleContext, Rule

__all__ = ["RULES"]

_FINALIZER_FUNCS = {"finalize", "addCleanup", "addfinalizer", "register"}


def _call_class_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _bound_name(ctx: ModuleContext, call: ast.Call) -> str | None:
    """The simple name the call result is assigned to, if any."""
    parent = ctx.parents.get(call)
    if isinstance(parent, (ast.Assign, ast.AnnAssign)):
        targets = parent.targets if isinstance(parent, ast.Assign) else [parent.target]
        if len(targets) == 1 and isinstance(targets[0], ast.Name):
            return targets[0].id
    return None


def _name_used(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == name for sub in ast.walk(node)
    )


def _closed_in_finally(scope: ast.AST, name: str) -> bool:
    for node in ast.walk(scope):
        if isinstance(node, ast.Try):
            for stmt in node.finalbody:
                for sub in ast.walk(stmt):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in ("close", "release", "shutdown")
                        and _name_used(sub.func.value, name)
                    ):
                        return True
    return False


def _registered_finalizer(scope: ast.AST, name: str) -> bool:
    for node in ast.walk(scope):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        fn_name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")
        if fn_name in _FINALIZER_FUNCS and any(
            _name_used(arg, name) for arg in node.args
        ):
            return True
    return False


def _escapes_scope(scope: ast.AST, name: str) -> bool:
    """yielded / returned / stored on an attribute or container —
    the obligation moved to whoever receives it."""
    for node in ast.walk(scope):
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = node.value
            if value is not None and _name_used(value, name):
                return True
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)) and _name_used(
                    node.value, name
                ):
                    return True
        if isinstance(node, ast.With):
            for item in node.items:
                if _name_used(item.context_expr, name):
                    return True
    return False


def _closed_anywhere(scope: ast.AST, name: str) -> bool:
    for node in ast.walk(scope):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("close", "release", "shutdown")
            and _name_used(node.func.value, name)
        ):
            return True
    return False


class UnmanagedResourceRule(Rule):
    name = "lifecycle-unmanaged"
    summary = (
        "close()-owning classes must be constructed under with/"
        "try-finally/finalize (or visibly hand off ownership)"
    )

    def check(self, ctx: ModuleContext):
        closeable = ctx.project.closeable_classes
        if not closeable:
            return
        is_test_module = not ctx.path.startswith("src/")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            cls = _call_class_name(node)
            if cls not in closeable:
                continue
            if self._discharged(ctx, node, is_test_module):
                continue
            yield self.finding(
                ctx,
                node,
                f"{cls} owns a close(); construct it under `with`, close "
                "it in a `finally`, or register weakref.finalize — a "
                "dropped instance leaks the threads or files it holds",
            )

    def _discharged(
        self, ctx: ModuleContext, call: ast.Call, is_test_module: bool
    ) -> bool:
        parent = ctx.parents.get(call)
        # with X(...) / return X(...) / yield X(...) / f(X(...)) /
        # self.x = X(...) / [X(...)] / {k: X(...)} / X(...).close()
        if isinstance(parent, ast.withitem):
            return True
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom, ast.Lambda)):
            return True
        # A bare constructor statement inside `with pytest.raises(...)`
        # is asserting the constructor fails — nothing to release.
        if isinstance(parent, ast.Expr) and self._under_pytest_raises(ctx, call):
            return True
        if isinstance(parent, (ast.Call, ast.Starred, ast.keyword)):
            return True
        if isinstance(parent, (ast.List, ast.Tuple, ast.Dict, ast.Set)):
            return True
        if isinstance(parent, ast.Attribute):
            return True  # immediately-consumed chain, incl. X(...).close()
        if isinstance(parent, ast.Assign) and any(
            isinstance(t, (ast.Attribute, ast.Subscript)) for t in parent.targets
        ):
            return True
        if isinstance(parent, ast.AnnAssign) and isinstance(
            parent.target, (ast.Attribute, ast.Subscript)
        ):
            return True
        name = _bound_name(ctx, call)
        if name is None:
            return False
        scope = ctx.enclosing_function(call) or ctx.tree
        if _closed_in_finally(scope, name):
            return True
        if _registered_finalizer(scope, name):
            return True
        if _escapes_scope(scope, name):
            return True
        if is_test_module and _closed_anywhere(scope, name):
            return True
        return False

    @staticmethod
    def _under_pytest_raises(ctx: ModuleContext, node: ast.AST) -> bool:
        for ancestor, _ in ctx.ancestors(node):
            if not isinstance(ancestor, ast.With):
                continue
            for item in ancestor.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    fn = expr.func
                    name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")
                    if name == "raises":
                        return True
        return False


RULES = [UnmanagedResourceRule]
