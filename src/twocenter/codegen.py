"""Formulas as source templates, and the compiler for generated code.

A state of the integrated systems has six or eight components, so a
right-hand side written as straight-line arithmetic on local variables
costs less than any function call around it.  Each formula, its guard
included, is written once, as an :class:`RhsTemplate`, and compiled in
the form each caller needs: written out at every stage of ``integrate``'s
generated runs, as a function of one state of floats (:func:`compile_kernel`)
or of numpy columns, the batched evaluators (:func:`compile_columns`).

The column form is the kernel's statements, parsed once and rewritten as a
syntax tree, run whole with overflow and invalid warnings off: like the kernel, it
returns inf and NaN silently, for a guard to refuse or its caller to judge.  The
guard's ``or`` becomes ``|``, and a batch where the test holds on any row goes to
the kernel at the first such row in C order, which raises the guard's error.
Each assignment is written in three-address form: the first array operation of
an expression allocates a temporary, and every later one whose left operand is
that temporary accumulates into it by augmented assignment (``t += u``), as
does a ``+`` or ``*`` of a scalar and it (``s * t`` as ``t *= s``, the same
bits, signed zeros included), so each row keeps the kernel's bits.  A numpy
scalar rebinds under augmented assignment, so one point needs no special case.
No input is ever written, and the array columns must share one shape, as a
temporary cannot grow.  Each temporary is deleted after its last reader.

Generated source is compiled on first use, never at import, and registered
with ``linecache`` under a ``<twocenter generated: ...>`` pseudo-filename,
so ``traceback``, ``inspect.getsource``, ``cProfile`` and ``pdb`` show its lines;
so does the interpreter's own printer of an uncaught error from Python 3.13 on
(up to 3.12 it reads files only).  ``namedtuple`` uses the same ``exec`` technique.
"""

from __future__ import annotations

import ast
import copy
import functools
import itertools
import linecache
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, NearCollisionError


class Guard(NamedTuple):
    """``lines`` assign the names that ``test`` reads, comparisons joined by ``or``; a
    state where it holds raises ``error(f"<message>")``, on numpy columns through
    the kernel at the first such row (see above)."""

    lines: str
    test: str
    error: type[Exception]
    message: str


def _refuse(template, refused, state, prob):
    """Run ``template``'s kernel, bound to ``prob``, on the first row of the columns
    ``state`` where ``refused`` holds, in C order: it raises the guard's error."""
    refused, *state = np.broadcast_arrays(refused, *state)
    row = np.unravel_index(np.argmax(refused), refused.shape)
    compile_kernel(template)(prob)([float(column[row]) for column in state])
    raise AssertionError(f"the {template.name} kernel passes a row that its column form refuses")


def _three_address(statement: ast.stmt, scalars: set[str], temps) -> list[ast.stmt]:
    """An assignment ``target = expr`` on numpy columns in three-address form (see
    above), with temporaries named from ``temps``; a subexpression of ``scalars``
    and literals alone stays one Python float.  Any other statement is kept."""
    lines = []

    def operand(node):
        """``node``'s value, and whether it is a fresh temporary (True), a scalar (None) or another array."""
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div))):
            return node, None if {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} <= scalars else False
        (left, fresh_left), (right, fresh_right) = operand(node.left), operand(node.right)
        if fresh_left is None and fresh_right is None:
            return node, None
        if fresh_left or fresh_right and fresh_left is None and isinstance(node.op, (ast.Add, ast.Mult)):
            into, other = (left, right) if fresh_left else (right, left)
            lines.append(ast.AugAssign(into, node.op, other))
            return into, True
        temp, node.left, node.right = ast.Name(next(temps)), left, right
        lines.append(ast.Assign([temp], node, lineno=statement.lineno))  # ast.unparse reads an Assign's lineno
        return temp, True

    value, fresh = operand(statement.value) if isinstance(statement, ast.Assign) else (None, False)
    if fresh:
        value.id = statement.targets[0].id  # one node for each temporary, so this renames it in every line
    return lines if fresh else [statement]


@dataclass(frozen=True, eq=False)
class RhsTemplate:
    """Source of a formula y -> f(y), such as a right-hand side y' = f(y).

    The ``guard`` (if any) and then ``body`` are statements that read the
    state from the names in ``state`` and the problem's constants from those
    in ``params``, and assign only temporaries, each once; ``derivative`` holds one
    expression per output in the names they leave, and ``sqrt`` is the
    form's square root.  ``params`` are exactly the constants it reads, attributes of
    the problem that each compiled form takes last (:meth:`header`).  ``name`` labels
    the generated code.  Templates compare by identity: each formula is one object.
    """

    name: str
    state: tuple[str, ...]
    params: tuple[str, ...]
    body: str
    derivative: tuple[str, ...]
    guard: Guard | None = None

    def statements(self, columns: bool = False) -> list[str]:
        """The guard's lines and test, then the body, one line each; on numpy columns also the derivative
        as ``_out{i}`` lines, all parsed, rewritten (see above) and unparsed once, which :func:`compile_columns`
        runs under one ``errstate``.  Without the ``del`` lines, more live arrays cost up to 25 % on 10^5 rows."""
        lines = self.body.splitlines()
        if self.guard is not None:
            raise_ = f'    raise {self.guard.error.__name__}(f"{self.guard.message}")'
            lines = [*self.guard.lines.splitlines(), f"if {self.guard.test}:", raise_, *lines]
        if not columns:
            return lines
        outputs = [f"_out{i}" for i in range(len(self.derivative))]
        tree = ast.parse("\n".join(lines + [f"{out} = {expr}" for out, expr in zip(outputs, self.derivative)]))
        fresh = (f"_t{i}" for i in itertools.count())
        body = [new for statement in tree.body for new in _three_address(statement, set(self.params), fresh)]
        temps = {statement.targets[0].id for statement in body if isinstance(statement, ast.Assign)} - set(outputs)
        for i in reversed(range(len(body))):  # from the end, a temporary's first reader is its last
            names = sorted(temps & {n.id for n in ast.walk(body[i]) if isinstance(n, ast.Name)})
            if names:
                body.insert(i + 1, ast.Delete([ast.Name(name) for name in names]))
                temps -= set(names)
        if self.guard is not None:
            check = next(statement for statement in body if isinstance(statement, ast.If))
            conditions = check.test.values if isinstance(check.test, ast.BoolOp) else [check.test]
            refused = functools.reduce(lambda left, right: ast.BinOp(left, ast.BitOr(), right), conditions)
            arguments = [ast.List([ast.Name(name) for name in self.state]), ast.Name("prob")]
            refuse = ast.Call(ast.Name("refuse"), [copy.copy(refused), *arguments], [])  # unparse keeps .any's parens
            check.test, check.body = ast.Call(ast.Attribute(refused, "any"), [], []), [ast.Expr(refuse)]
        return ast.unparse(ast.Module(body, [])).splitlines()

    def header(self, function: str, arguments) -> list[str]:
        """``def function(*arguments, prob):``, ``prob=None`` if the template reads no
        constant, then one line per name of ``params`` that reads it from ``prob``."""
        prob = "prob" if self.params else "prob=None"
        reads = [f"    {name} = prob.{name}" for name in self.params]
        return [f"def {function}({', '.join([*arguments, prob])}):", *reads]

    def inline(self, values, outputs, indent: str) -> list[str]:
        """Lines that evaluate f at the expressions ``values`` into the names ``outputs``."""
        lines = [f"{name} = {value}" for name, value in zip(self.state, values)]
        lines += self.statements()
        lines += [f"{out} = {expr}" for out, expr in zip(outputs, self.derivative)]
        return [indent + line for line in lines]


def compile_function(label: str, source: str, name: str, namespace: dict):
    """Compile ``source``, registered with ``linecache`` as ``<twocenter generated:
    label>``, and return its function ``name``; ``namespace`` gives its globals,
    next to the guards' errors, ``inf`` and ``sqrt`` (``math.sqrt`` unless given)."""
    filename = f"<twocenter generated: {label}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"sqrt": math.sqrt, "inf": math.inf, "InvalidInputError": InvalidInputError,
                 "NearCollisionError": NearCollisionError, **namespace}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


@functools.cache
def compile_kernel(template: RhsTemplate):
    """``bind(prob) -> rhs``: the template as a function of one state.

    ``rhs(state)`` maps a sequence of floats to the tuple of derivative
    components, with the constants of ``template.params`` read from ``prob``
    once, at binding.  Compiled once per template.
    """
    lines = [
        *template.header("bind", ()),
        "    def rhs(state):",
        f"        {', '.join(template.state)}, = state",
        *("        " + line for line in template.statements()),
        f"        return ({', '.join(template.derivative)},)",
        "    return rhs",
    ]
    return compile_function(f"{template.name} kernel", "\n".join(lines) + "\n", "bind", {})


@functools.cache
def compile_columns(template: RhsTemplate):
    """``columns(*state, prob) -> outputs``: the template on numpy columns, in the kernel's arithmetic,
    so each row gives the kernel's bits, inf and NaN included, with no warning.  Compiled once per template."""
    lines = [
        *template.header("columns", template.state),
        '    with errstate(over="ignore", invalid="ignore"):',
        *("        " + line for line in template.statements(columns=True)),
        f"        return ({', '.join(f'_out{i}' for i in range(len(template.derivative)))},)",
    ]
    namespace = {"sqrt": np.sqrt, "errstate": np.errstate, "refuse": functools.partial(_refuse, template)}
    return compile_function(f"{template.name} columns", "\n".join(lines) + "\n", "columns", namespace)
