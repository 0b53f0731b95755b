"""Numeric-exactness rules: integer-capacity and float-flow.

The paper's capacities ``floor((t - D_j - X_j) / C_j)`` are integers and
the kernel stores capacities and flows as exact Python ints — a stray
true division or a 0.5-ish literal silently turns the max-flow instance
fractional, and a float ``==`` makes feasibility tests
representation-dependent.  Within the algorithmic packages (``core/``
and ``maxflow/``) the ``integer-capacity`` rule flags:

* ``==`` / ``!=`` where either side is a float literal — compare against
  an integer, or use an explicit epsilon band;
* true division ``/`` in any expression that mentions a capacity-ish
  identifier (``cap``, ``caps``, ``capacity``, ``threshold``, …) — use
  floor division ``//`` or integer arithmetic;
* non-integral float literals written into capacity-named targets or
  passed to capacity-named calls (``set_capacity(a, 0.5)``).

The ``float-flow`` rule extends the guarantee repo-wide: anywhere under
``src/``, no float literal, true-division result, ``float(...)`` cast or
epsilon-tolerance comparison may reach a ``flow``/``cap`` slot.  It is
the tripwire that keeps the float-era arithmetic from creeping back into
the integer kernel (see the :class:`FloatFlowRule` docstring for the
exact triggers).

Identifier matching is token-based (split on ``_``), so ``sink_caps``
matches but ``escape`` does not.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import mentions_token
from repro.lint.engine import Module, Rule
from repro.lint.findings import Finding

__all__ = ["IntegerCapacityRule", "FloatFlowRule"]

#: identifier fragments that mark a value as a capacity/threshold
CAPACITY_TOKENS = frozenset(
    {"cap", "caps", "capacity", "capacities", "threshold", "thresholds"}
)

#: packages where capacity arithmetic must stay exact
SCOPED_DIRS = ("core/", "maxflow/")


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        return _is_float_literal(node.operand)
    return False


def _nonintegral_floats(node: ast.AST) -> Iterator[ast.Constant]:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, float)
            and sub.value != int(sub.value)
        ):
            yield sub


class IntegerCapacityRule(Rule):
    name = "integer-capacity"
    description = (
        "capacity/threshold arithmetic in core/ and maxflow/ must stay "
        "integral: no float ==, no true division, no fractional literals"
    )

    def applies_to(self, path: str) -> bool:
        return any(d in path for d in SCOPED_DIRS)

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Compare):
                yield from self._check_compare(module, node)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                yield from self._check_division(module, node)
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, ast.Div
            ):
                yield from self._check_division(module, node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                value = node.value
                if value is None:
                    continue
                for target in targets:
                    if mentions_token(target, CAPACITY_TOKENS):
                        yield from self._check_fractional(module, value)
                        break
            elif isinstance(node, ast.Call):
                if mentions_token(node.func, CAPACITY_TOKENS):
                    for arg in list(node.args) + [
                        kw.value for kw in node.keywords
                    ]:
                        yield from self._check_fractional(module, arg)

    # ------------------------------------------------------------------
    def _check_compare(
        self, module: Module, node: ast.Compare
    ) -> Iterator[Finding]:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_float_literal(left) or _is_float_literal(right):
                yield Finding(
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    rule=self.name,
                    message="exact equality against a float literal",
                    hint=(
                        "compare against an int, use an epsilon band, or "
                        "restructure to an integer quantity"
                    ),
                )

    def _check_division(
        self, module: Module, node: ast.BinOp | ast.AugAssign
    ) -> Iterator[Finding]:
        operands = (
            (node.left, node.right)
            if isinstance(node, ast.BinOp)
            else (node.target, node.value)
        )
        if any(mentions_token(op, CAPACITY_TOKENS) for op in operands):
            yield Finding(
                path=module.path,
                line=node.lineno,
                col=node.col_offset + 1,
                rule=self.name,
                message=(
                    "true division '/' on a capacity/threshold expression"
                ),
                hint="use floor division '//' or integer arithmetic",
            )

    def _check_fractional(
        self, module: Module, value: ast.expr
    ) -> Iterator[Finding]:
        for const in _nonintegral_floats(value):
            yield Finding(
                path=module.path,
                line=const.lineno,
                col=const.col_offset + 1,
                rule=self.name,
                message=(
                    f"non-integral float literal {const.value!r} in a "
                    f"capacity/threshold expression"
                ),
                hint="capacities are integral; use whole numbers",
            )


# ----------------------------------------------------------------------
# float-flow: the integer-kernel tripwire
# ----------------------------------------------------------------------

#: identifier fragments that mark a value as a flow/capacity slot
FLOW_TOKENS = frozenset(
    {"flow", "flows", "cap", "caps", "capacity", "capacities"}
)

#: FlowNetwork mutators whose arguments enter the kernel directly
_KERNEL_CALLS = frozenset({"push", "set_capacity", "add_arc", "from_arcs"})

#: identifier fragments that mark an epsilon-tolerance constant
_EPS_TOKENS = frozenset({"eps", "epsilon", "tol", "tolerance"})


def _float_taint(value: ast.AST) -> ast.AST | None:
    """First sub-node that would put a float into an int slot, if any.

    Taints: any float literal (``1.0`` and ``1e-9`` alike), a true
    division ``/``, or a ``float(...)`` cast.  Comparisons nested inside
    the value are skipped — a bool from ``cap > 0.5`` is not itself a
    float, and comparisons get their own check.
    """
    for sub in ast.walk(value):
        if isinstance(sub, ast.Compare):
            continue
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            return sub
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
            return sub
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "float"
        ):
            return sub
    return None


def _mentions_eps(node: ast.AST) -> bool:
    from repro.lint.astutil import identifier_tokens

    return any(tok in _EPS_TOKENS for tok in identifier_tokens(node))


class FloatFlowRule(Rule):
    """float-flow: no float arithmetic may reach a flow/cap slot.

    Everywhere under ``src/`` (the whole package, not just the
    algorithmic core), flags:

    * assignments (plain, augmented, annotated) whose target mentions a
      ``flow``/``cap`` token and whose value contains a float literal, a
      true division, or a ``float(...)`` cast;
    * ``.append(...)`` on a flow/cap-named receiver with such arguments
      (the parallel-list construction path);
    * calls to the kernel mutators ``push`` / ``set_capacity`` /
      ``add_arc`` / ``from_arcs`` with such arguments;
    * comparisons where one side mentions a ``flow``/``cap`` token and
      any operand carries a float literal or an epsilon-named constant —
      the ``residual > 1e-9`` / ``flow > 0.5`` patterns of the float
      era; with the integer kernel every such test must be exact.
    """

    name = "float-flow"
    description = (
        "flow/cap slots are exact ints everywhere under src/: no float "
        "literal, true division, float() cast or epsilon comparison may "
        "reach one"
    )

    def applies_to(self, path: str) -> bool:
        return True

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                yield from self._check_assign(module, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node)
            elif isinstance(node, ast.Compare):
                yield from self._check_compare(module, node)

    # ------------------------------------------------------------------
    def _check_assign(
        self,
        module: Module,
        node: ast.Assign | ast.AnnAssign | ast.AugAssign,
    ) -> Iterator[Finding]:
        value = node.value
        if value is None:
            return
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [node.target]
        if not any(mentions_token(t, FLOW_TOKENS) for t in targets):
            return
        taint = _float_taint(value)
        if taint is not None:
            yield self._finding(
                module,
                taint,
                "float arithmetic assigned into a flow/cap slot",
            )

    def _check_call(
        self, module: Module, node: ast.Call
    ) -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        is_kernel = func.attr in _KERNEL_CALLS
        is_append = func.attr == "append" and mentions_token(
            func.value, FLOW_TOKENS
        )
        if not (is_kernel or is_append):
            return
        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
            taint = _float_taint(arg)
            if taint is not None:
                yield self._finding(
                    module,
                    taint,
                    f"float arithmetic passed to {func.attr}() enters a "
                    f"flow/cap slot",
                )

    def _check_compare(
        self, module: Module, node: ast.Compare
    ) -> Iterator[Finding]:
        operands = [node.left, *node.comparators]
        if not any(mentions_token(op, FLOW_TOKENS) for op in operands):
            return
        for op in operands:
            bad = None
            for sub in ast.walk(op):
                if isinstance(sub, ast.Constant) and isinstance(
                    sub.value, float
                ):
                    bad = sub
                    break
            if bad is None and _mentions_eps(op):
                bad = op
            if bad is not None:
                yield self._finding(
                    module,
                    bad,
                    "epsilon/float comparison against a flow/cap slot; "
                    "the integer kernel compares exactly",
                )
                return

    def _finding(
        self, module: Module, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.name,
            message=message,
            hint=(
                "capacities and flows are exact Python ints end to end "
                "(see docs/ALGORITHMS.md, 'Integer kernel'); keep float "
                "arithmetic on the response-time side of capacity_at()"
            ),
        )
