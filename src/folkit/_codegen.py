"""The compiled evaluator: one generated Python function per formula.

:func:`generate` writes the source of a function that evaluates a formula
over the integer-encoded tables of ``semantics`` and builds it with
``compile``, as ``collections.namedtuple`` builds its methods.  In that
function
  - a quantifier whose body reads its variable is a ``for`` loop over
    range(k) that stops at the first false instance; any other quantifier
    is decided once, as a carrier is never empty;
  - bound variables are locals; free variables, tables and parameters are
    read into locals on entry;
  - quantifier-free parts are single expressions.
No text from the input reaches the source, which holds only integers and
names of its own: symbols and parameter names are passed as default
arguments.  The function refers to no node, so it dies with the node that
keeps it.  Reading on entry raises IndexError or KeyError for a short
environment, a missing table or a parameter outside the carrier even
where evaluation would not reach them; the caller then answers with the
tree walk of ``semantics``, which raises each error where evaluation
reaches it.
"""

from __future__ import annotations

from types import FunctionType

from .syntax import Atom, Forall, Formula, Implies, Param, Term, Var

# CPython refuses a 21st statically nested block and a 100th level of
# indentation
_MAX_LOOPS = 20
_MAX_INDENT = 99
# nodes visited while generating, which bounds the time and memory that
# one function takes: a DAG of shared children may unfold exponentially
_MAX_NODES = 2000
_GLOBALS = {"__builtins__": {}, "range": range}


class _TooLarge(Exception):
    """The formula is past a limit of the generated source."""


class _Source:
    """The source of one generated function for a formula."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.entry: list[str] = []
        self.locals: dict[tuple, str] = {}  # (kind, key) -> local name
        self.defaults: dict[str, str] = {}  # symbol or parameter name -> argument name
        self.info: dict = {}  # node -> (free variable indices, has a loop)
        self.indent = 1
        self.loops = 0
        self.nodes = 0

    def local(self, kind: str, key, read) -> str:
        name = self.locals.get((kind, key))
        if name is None:
            name = self.locals[kind, key] = f"{kind}{len(self.locals)}"
            self.entry.append(f"{name} = {read}")
        return name

    def carrier(self) -> str:
        return self.local("r", None, "range(k)")

    def argument(self, text: str) -> str:
        name = self.defaults.get(text)
        if name is None:
            name = self.defaults[text] = f"s{len(self.defaults)}"
        return name

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def visit(self) -> None:
        self.nodes += 1
        if self.nodes > _MAX_NODES:
            raise _TooLarge

    def facts(self, d) -> tuple[frozenset[int], bool]:
        """The free variable indices of a node and whether it has a loop."""
        found = self.info.get(d)
        if found is None:
            ty = type(d)
            if ty is Var:
                found = frozenset((d.index,)), False
            elif ty is Param:
                found = frozenset(), False
            elif ty is Implies:
                (a, la), (b, lb) = self.facts(d.lhs), self.facts(d.rhs)
                found = a | b, la or lb
            elif ty is Forall:
                body, loops = self.facts(d.body)
                found = frozenset(i - 1 for i in body if i > 1), loops or 1 in body
            elif ty is Atom or isinstance(d, Term):
                found = frozenset().union(*(self.facts(a)[0] for a in d.args)), False
            else:
                raise _TooLarge  # not a formula: the tree walk raises its error when reached
            self.info[d] = found
        return found

    def term(self, t: Term, depth: int) -> str:
        self.visit()
        ty = type(t)
        if ty is Var:
            if t.index <= depth:
                return f"m{depth - t.index}"
            return self.local("e", t.index - depth, f"env[{t.index - depth - 1}]")
        if ty is Param:
            return self.local("p", t.name, f"index[{self.argument(t.name)}]")
        table = self.local("f", t.symbol, f"fns[{self.argument(t.symbol)}]")
        return f"{table}[{self.position(t.args, depth)}]"

    def position(self, args: tuple[Term, ...], depth: int) -> str:
        n = len(args)
        parts = []
        for i, a in enumerate(args, 1):
            power = n - i
            scale = "" if power == 0 else "*k" if power == 1 else (
                "*" + self.local("k", power, f"k**{power}"))
            parts.append(self.term(a, depth) + scale)
        return "+".join(parts) or "0"

    def expr(self, f: Formula, depth: int) -> tuple[str, bool]:
        """A loop-free formula as one expression, and whether that is an
        ``or`` (which needs brackets as an operand)."""
        self.visit()
        ty = type(f)
        if ty is Atom:
            table = self.local("t", f.symbol, f"preds[{self.argument(f.symbol)}]")
            return f"{self.position(f.args, depth)} in {table}", False
        if ty is Implies:
            return f"not {self.operand(f.lhs, depth)} or {self.expr(f.rhs, depth)[0]}", True
        if ty is Forall:
            return self.expr(f.body, depth + 1)
        raise _TooLarge  # not a formula: the tree walk raises its error when reached

    def operand(self, f: Formula, depth: int) -> str:
        text, is_or = self.expr(f, depth)
        return f"({text})" if is_or else text

    def enter(self, loop: bool) -> None:
        self.indent += 1
        self.loops += loop
        if self.indent > _MAX_INDENT or self.loops > _MAX_LOOPS:
            raise _TooLarge

    def leave(self, loop: bool) -> None:
        self.indent -= 1
        self.loops -= loop

    def decide(self, f: Formula, depth: int, if_true: str) -> None:
        """Statements that return False when f is false; when it is true
        they fall through or run ``if_true``, which has the same effect."""
        self.visit()
        if not self.facts(f)[1]:
            self.emit(f"if not {self.operand(f, depth)}: return False")
        elif type(f) is Implies:
            self.emit(f"if not {self.condition(f.lhs, depth)}: {if_true}")
            self.decide(f.rhs, depth, if_true)
        elif 1 in self.facts(f.body)[0]:
            self.emit(f"for m{depth} in {self.carrier()}:")
            self.enter(True)
            self.decide(f.body, depth + 1, "continue")
            self.leave(True)
        else:
            self.decide(f.body, depth + 1, if_true)

    def condition(self, f: Formula, depth: int) -> str:
        """An operand for f's truth: its expression, or ``v`` after
        statements that compute it."""
        if not self.facts(f)[1]:
            return self.operand(f, depth)
        self.value(f, depth)
        return "v"

    def value(self, f: Formula, depth: int) -> None:
        """Statements that set ``v`` to the truth of f."""
        self.visit()
        if not self.facts(f)[1]:
            self.emit(f"v = {self.expr(f, depth)[0]}")
        elif type(f) is Implies:
            self.emit(f"if {self.condition(f.lhs, depth)}:")
            self.enter(False)
            self.value(f.rhs, depth)
            self.leave(False)
            self.emit("else: v = True")
        elif 1 in self.facts(f.body)[0]:
            self.emit("v = True")
            self.emit(f"for m{depth} in {self.carrier()}:")
            self.enter(True)
            self.value(f.body, depth + 1)
            self.emit("if not v: break")
            self.leave(True)
        else:
            self.value(f.body, depth + 1)


def generate(f: Formula) -> FunctionType | None:
    """One Python function ``(k, fns, preds, index, env) -> bool`` that
    evaluates f, or None when f is past a limit or holds a term where a
    formula belongs."""
    source = _Source()
    try:
        source.decide(f, 0, "return True")
    except _TooLarge:
        return None
    parameters = ", ".join(["k, fns, preds, index, env", *source.defaults.values()])
    text = "\n".join([
        f"def generated({parameters}):",
        *("    " + line for line in source.entry),
        *source.lines,
        "    return True",
    ])
    code = compile(text, "<folkit generated>", "exec").co_consts[0]
    # the source is not kept, so a line table would point into nothing
    code = code.replace(co_linetable=b"")
    return FunctionType(code, _GLOBALS, "generated", tuple(source.defaults))
