"""Right-hand sides as source templates, and the compiler for generated code.

A state of the integrated systems has six or eight components, so a
right-hand side written as straight-line arithmetic on local variables
costs less than any function call around it.  Each system therefore defines
its right-hand side once, as an :class:`RhsTemplate`: ``integrate`` writes
it out at every stage of its generated Dormand-Prince runs, and
:func:`compile_kernel` turns the same text into the standalone function of
one state that the rest of the package and the tests call.

Generated source is compiled on first use, never at import, and registered
with ``linecache`` under a ``<twocenter generated: ...>`` pseudo-filename,
so tracebacks, ``inspect.getsource``, ``cProfile`` and ``pdb`` show its
lines.  ``namedtuple`` uses the same ``exec`` technique.
"""

from __future__ import annotations

import functools
import linecache
import math
from dataclasses import dataclass

from .errors import NearCollisionError


@dataclass(frozen=True, eq=False)
class RhsTemplate:
    """Source of a right-hand side y' = f(y).

    ``body`` is a block of statements that reads the state from the names in
    ``state`` and the problem's constants from the names in ``params``,
    assigns only temporaries of its own and may raise
    :class:`NearCollisionError`; ``derivative`` holds one expression per
    state component in the names the body leaves.  ``sqrt`` is
    ``math.sqrt``.  ``name`` labels the generated code.  Templates compare
    by identity: each system's template is one module-level object.
    """

    name: str
    state: tuple[str, ...]
    params: tuple[str, ...]
    body: str
    derivative: tuple[str, ...]

    def inline(self, values, outputs, indent: str) -> list[str]:
        """Lines that evaluate f at the expressions ``values`` into the names ``outputs``."""
        lines = [f"{name} = {value}" for name, value in zip(self.state, values)]
        lines += self.body.splitlines()
        lines += [f"{out} = {expr}" for out, expr in zip(outputs, self.derivative)]
        return [indent + line for line in lines]


def compile_function(label: str, source: str, name: str, namespace: dict):
    """Compile ``source`` and return its function ``name``.

    The source is registered with ``linecache`` as
    ``<twocenter generated: label>``; ``namespace`` gives its globals, next
    to ``sqrt`` and ``NearCollisionError``.
    """
    filename = f"<twocenter generated: {label}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"sqrt": math.sqrt, "NearCollisionError": NearCollisionError, **namespace}
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
        *("        " + line for line in template.body.splitlines()),
        f"        return ({', '.join(template.derivative)},)",
        "    return rhs",
    ]
    return compile_function(f"{template.name} kernel", "\n".join(lines) + "\n", "bind", {})
