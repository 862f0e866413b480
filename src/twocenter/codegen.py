"""Formulas as source templates, and the compiler for generated code.

A state of the integrated systems has six or eight components, so a
right-hand side written as straight-line arithmetic on local variables
costs less than any function call around it.  Each formula, its guard
included, is written once, as an :class:`RhsTemplate`, and compiled in
the form each caller needs: written out at every stage of ``integrate``'s
generated runs, as a function of one state of floats (:func:`compile_kernel`)
or of numpy columns, the batched evaluators (:func:`compile_columns`).

On numpy columns each line is written in three-address form: the first
array operation of an expression allocates a temporary, and every later one
whose left operand is that temporary accumulates into it by augmented
assignment (``t += u``), as does a ``+`` or ``*`` of a scalar and it
(``s * t`` as ``t *= s``, the same bits, signed zeros included), so each row
keeps the kernel's bits.  A numpy scalar rebinds under augmented assignment,
so one point needs no special case.  No input is ever written, and the array
columns must share one shape, as a temporary cannot grow.  Each temporary is
deleted after its last reader.

Generated source is compiled on first use, never at import, and registered
with ``linecache`` under a ``<twocenter generated: ...>`` pseudo-filename,
so tracebacks, ``inspect.getsource``, ``cProfile`` and ``pdb`` show its
lines.  ``namedtuple`` uses the same ``exec`` technique.
"""

from __future__ import annotations

import ast
import functools
import itertools
import linecache
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, NearCollisionError


class Guard(NamedTuple):
    """``lines`` assign the names that ``test`` reads, comparisons joined by ``or``; a
    state where it holds raises ``error(f"<message>")``.  On numpy columns the lines
    run with overflow warnings off, as an overflow may be what is refused, the
    comparisons are joined by ``|`` and hold for the batch if on any row, and the
    message reads its names at the first such row."""

    lines: str
    test: str
    error: type[Exception]
    message: str


def _assigned(text: str) -> list[str]:
    """The names that the statements ``text`` assign, one name to a statement."""
    return re.findall(r"^\s*(\w+) = ", text, re.MULTILINE)


def _first_row(refused, *values) -> list[float]:
    """The ``values``, broadcast to the shape of ``refused``, at its first true row."""
    row = np.unravel_index(np.argmax(refused), np.shape(refused))
    return [float(np.broadcast_to(value, np.shape(refused))[row]) for value in values]


_SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


def _in_place(line: str, scalars: set[str], temps) -> list[str]:
    """An assignment ``target = expr`` on numpy columns in three-address form (see
    above), with temporaries named from ``temps``; a subexpression of ``scalars``
    and literals alone stays one Python float.  Any other line is kept."""
    match = re.fullmatch(r"(\s*)(\w+) = (.*)", line)
    if not match:
        return [line]
    indent, target, expr = match.groups()
    lines = []

    def scalar(node) -> bool:
        return all(name.id in scalars for name in ast.walk(node) if isinstance(name, ast.Name))

    def operand(node) -> tuple[str, bool]:
        """The text of ``node``'s value, and whether it is a fresh temporary."""
        if scalar(node) or not (isinstance(node, ast.BinOp) and type(node.op) in _SYMBOLS):
            text = ast.unparse(node)
            return (text if isinstance(node, (ast.Name, ast.Constant)) else f"({text})"), False
        (left, fresh_left), (right, fresh_right) = operand(node.left), operand(node.right)
        op = _SYMBOLS[type(node.op)]
        if fresh_left or fresh_right and op in "+*" and scalar(node.left):
            into, other = (left, right) if fresh_left else (right, left)
            lines.append(f"{into} {op}= {other}")
            return into, True
        temp = next(temps)
        lines.append(f"{temp} = {left} {op} {right}")
        return temp, True

    value, fresh = operand(ast.parse(expr, mode="eval").body)
    return [indent + re.sub(rf"\b{value}\b", target, line) for line in lines] if fresh else [line]


@dataclass(frozen=True, eq=False)
class RhsTemplate:
    """Source of a formula y -> f(y), such as a right-hand side y' = f(y).

    The ``guard`` (if any) and then ``body`` are statements that read the
    state from the names in ``state`` and the problem's constants from those
    in ``params``, and assign only temporaries, each once; ``derivative`` holds one
    expression per output in the names they leave, and ``sqrt`` is the
    form's square root.  ``name`` labels the generated code.  Templates
    compare by identity: each formula is one module-level object.
    """

    name: str
    state: tuple[str, ...]
    params: tuple[str, ...]
    body: str
    derivative: tuple[str, ...]
    guard: Guard | None = None

    def lines(self, columns: bool = False) -> list[str]:
        """The guard's lines and test, then the body; an entry per line, an ``if`` block whole."""
        lines = []
        if self.guard is not None:
            guard_lines, test = self.guard.lines.splitlines(), self.guard.test
            raise_ = f'raise {self.guard.error.__name__}(f"{self.guard.message}")'
            if columns:
                test = " | ".join(f"({condition})" for condition in test.split(" or "))
                fields = " ".join(re.findall(r"\{([^}:!]*)", self.guard.message))
                read = ", ".join(sorted(set(re.findall(r"\b[A-Za-z_]\w*", fields)) - set(self.params)))
                raise_ = f"{read}, = first_row({test}, {read})\n    {raise_}" if read else raise_
                guard_lines = ['with errstate(over="ignore"):', *("    " + line for line in guard_lines)]
                test = f"({test}).any()"
            lines += [*guard_lines, f"if {test}:\n    {raise_}"]
        return lines + self.body.splitlines()

    def statements(self, columns: bool = False) -> list[str]:
        """:meth:`lines`, one line each.  On numpy columns the derivative follows as
        ``_out{i}`` lines, every line is in three-address form, and each temporary
        is deleted after its last reader: a larger working set of live arrays costs
        up to 25 % on 10^5 rows."""
        statements = self.lines(columns)
        if columns:
            outputs = [f"_out{i}" for i in range(len(self.derivative))]
            fresh = (f"_t{i}" for i in itertools.count())
            statements += [f"{out} = {expr}" for out, expr in zip(outputs, self.derivative)]
            statements = [new for line in statements for new in _in_place(line, set(self.params), fresh)]
            temps = {name for line in statements for name in _assigned(line)} - set(outputs)
            last = {name: i for i, line in enumerate(statements) for name in re.findall(r"\w+", line) if name in temps}
            for i in sorted(set(last.values()), reverse=True):  # at the reader's indent, so also in a with block
                indent = statements[i][:len(statements[i]) - len(statements[i].lstrip())]
                names = ", ".join(sorted(name for name, j in last.items() if j == i))
                statements.insert(i + 1, f"{indent}del {names}")
        return "\n".join(statements).splitlines()

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
    """``bind(*params) -> rhs``: the template as a function of one state.

    ``rhs(state)`` maps a sequence of floats to the tuple of derivative
    components, with the parameters bound in the order of
    ``template.params``.  Compiled once per template.
    """
    lines = [
        f"def bind({', '.join(template.params)}):",
        "    def rhs(state):",
        f"        {', '.join(template.state)}, = state",
        *("        " + line for line in template.statements()),
        f"        return ({', '.join(template.derivative)},)",
        "    return rhs",
    ]
    return compile_function(f"{template.name} kernel", "\n".join(lines) + "\n", "bind", {})


@functools.cache
def compile_columns(template: RhsTemplate):
    """``columns(*state, *params) -> outputs``: the template on numpy columns, in the
    kernel's arithmetic, so each row gives the kernel's bits.  Compiled once per template."""
    lines = [
        f"def columns({', '.join(template.state + template.params)}):",
        *("    " + line for line in template.statements(columns=True)),
        f"    return ({', '.join(f'_out{i}' for i in range(len(template.derivative)))},)",
    ]
    namespace = {"sqrt": np.sqrt, "errstate": np.errstate, "first_row": _first_row}
    return compile_function(f"{template.name} columns", "\n".join(lines) + "\n", "columns", namespace)
