"""R4 — unguarded run-hook calls in engine/simulator hot loops.

The run hooks (:class:`repro.engines.base.RunHooks`: telemetry, tracing,
the sanitizer) cost nothing when off: every loop must take its exact
unobserved instruction path when a hook is ``None``. That only holds
when each hook call sits behind an ``if tel is not None`` (or
equivalent) guard. This rule flags calls on hook-looking receivers —
telemetry (``tel``, ``_tel``, ``telemetry``, ``probe``, ``_probe``,
``hub``), tracer (``tr``, ``trc``, ``tracing``) and sanitizer (``san``,
``_san``, ``sanitizer``) — in ``core/``, ``engines/`` and ``cluster/``
that no enclosing guard protects.

A receiver that is a *parameter* of the enclosing function is treated as
guaranteed-non-None by its callers (the idiom used by helpers like
``ReplicaFleet.sample_cluster(self, tel, t)`` that are only invoked
under a guard).
"""

from __future__ import annotations

import ast

from repro.check.rules.base import FileContext, Finding, Rule

RECEIVER_NAMES = frozenset({
    "tel", "_tel", "telemetry", "probe", "_probe", "hub",  # telemetry
    "tr", "trc", "tracing",  # tracer
    "san", "_san", "sanitizer",  # sanitizer
})


def _terminal_ident(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _matches(test: ast.expr, recv_dump: str) -> tuple[bool, bool]:
    """(guards_body, guards_orelse) for a guard test vs. the receiver."""
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left, op, right = test.left, test.ops[0], test.comparators[0]
        is_none = isinstance(right, ast.Constant) and right.value is None
        if is_none and ast.dump(left) == recv_dump:
            if isinstance(op, ast.IsNot):
                return True, False
            if isinstance(op, ast.Is):
                return False, True
    if isinstance(test, (ast.Name, ast.Attribute)) and ast.dump(test) == recv_dump:
        return True, False  # truthiness guard
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        body, orelse = _matches(test.operand, recv_dump)
        return orelse, body
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        for value in test.values:
            body, _ = _matches(value, recv_dump)
            if body:
                return True, False
    return False, False


class HookGuardRule(Rule):
    id = "R4"
    name = "hook-guard"
    severity = "error"
    description = (
        "run-hook (telemetry/tracer/sanitizer) call in a hot loop without "
        "an `is not None` guard (breaks the zero-overhead-when-off contract)"
    )
    include = ("cluster/", "core/", "engines/")

    def check(self, ctx: FileContext) -> list[Finding]:
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            recv = node.func.value
            ident = _terminal_ident(recv)
            if ident not in RECEIVER_NAMES:
                continue
            if self._is_parameter(ctx, node, recv):
                continue
            if self._guarded(ctx, node, recv):
                continue
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"run-hook call {ident}.{node.func.attr}(...) is not "
                    "behind an `if ... is not None` guard; the off path must "
                    "stay instruction-identical",
                )
            )
        return findings

    def _is_parameter(self, ctx: FileContext, node: ast.AST, recv: ast.expr) -> bool:
        if not isinstance(recv, ast.Name):
            return False
        func = ctx.enclosing_function(recv)
        if func is None:
            return False
        args = func.args
        names = [
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        ]
        return recv.id in names

    def _guarded(self, ctx: FileContext, node: ast.AST, recv: ast.expr) -> bool:
        recv_dump = ast.dump(recv)
        for parent, child in ctx.ancestors(node):
            if isinstance(parent, ast.If):
                guards_body, guards_orelse = _matches(parent.test, recv_dump)
                in_body = child in parent.body
                in_orelse = child in parent.orelse
                if (guards_body and in_body) or (guards_orelse and in_orelse):
                    return True
            elif isinstance(parent, ast.IfExp):
                guards_body, guards_orelse = _matches(parent.test, recv_dump)
                if (guards_body and child is parent.body) or (
                    guards_orelse and child is parent.orelse
                ):
                    return True
            elif isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._early_guard(parent, child, recv_dump):
                    return True
                return False
        return False

    @staticmethod
    def _early_guard(func: ast.AST, stmt: ast.AST, recv_dump: str) -> bool:
        """An `if recv is None: return/raise/continue` earlier in the
        function body guards everything after it."""
        body = func.body
        try:
            idx = body.index(stmt)
        except ValueError:
            return False
        for earlier in body[:idx]:
            if not isinstance(earlier, ast.If) or earlier.orelse:
                continue
            _, guards_orelse = _matches(earlier.test, recv_dump)
            if not guards_orelse:
                continue  # test is not `recv is None`-shaped
            last = earlier.body[-1]
            if isinstance(last, (ast.Return, ast.Raise, ast.Continue)):
                return True
        return False
