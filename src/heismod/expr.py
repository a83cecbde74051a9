"""Symbolic expression trees with Wirtinger calculus.

This module provides the small expression language used everywhere else in
the package: coefficient functions of quadratic differentials on the
Heisenberg group are expressions in ``z``, ``zb``, ``t``; leaf
parametrizations are expressions in ``s``, ``p1``, ``p2``; the planar
cross-check module uses ``w``, ``wb``, ``s``, ``p``.  The conjugate-looking
variables ``zb`` and ``wb`` are syntactically independent of ``z`` and
``w``: differentiation is Wirtinger differentiation, and evaluation only
requires that bindings supply numerically consistent conjugate values.

Grammar (text form accepted by :func:`parse`)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' exponent)?
    unary  := '-' unary | atom
    atom   := number | 'i' | ident | ident '(' expr ')' | '(' expr ')'

The exponent after ``^`` must be a real literal: a decimal number, a
rational ``a/b``, or either of those parenthesized and optionally negated
(``z^2``, ``z^-1``, ``z^(2/3)``).  Anything else raises
:class:`~heismod.errors.NonLiteralExponent`.  Note that ``^`` applies to
the whole unary term, so ``-z^2`` parses as ``(-z)^2``.

Functions: ``conj``, ``sqrt``, ``exp``, ``log``, ``sin``, ``cos``, ``re``,
``im``, ``abs2``.  ``conj(u)`` is desugared structurally (``conj(z)``
becomes ``zb``); there is no conjugation node.  ``sqrt``, ``log`` and
fractional powers use principal branches.

Nodes are immutable and hash-consed: structurally equal live subtrees
are the same object, which makes evaluation over the resulting DAG
cache shared work automatically.  The intern table ``_INTERN`` holds its
nodes weakly (Filliatre & Conchon, "Type-Safe Modular Hash-Consing",
2006), so a long-lived process keeps only the nodes something still
uses; the variable atoms live for the whole process.

The structural transforms (:func:`free_vars`, :func:`conj_expr`,
:func:`substitute`, :func:`diff`) are loops over one iterative
children-first walk, :func:`_topo`, and :func:`to_string` keeps its own
stack, so a long sum, which the parser builds as a left-deep chain, never
meets the recursion limit.  A node's free variables and structural
conjugate are memoized on the node, in slots filled on first use.

:func:`evaluate` is the checked evaluator at one point.
:func:`eval_array` runs an expression, or a tuple of roots, through a
plan: the children-first order of the union of their DAGs, one numpy
kernel per node, and the release of every intermediate after its last
read by any root; the roots' values live to the end.  So roots that
share nodes evaluate each of them once, and each root keeps the bits it
has alone.  A plan is compiled once per DAG structure and takes the
constants' values as inputs, so expressions that differ only in their
constants share it; a bounded LRU keyed by the root, or the tuple of
roots, keeps its plan and constants, so a repeated call skips the walk,
and both caches hold at most ``_PLAN_CAP`` entries.  The plan runs over
row blocks of about 8k points of the broadcast grid, so its
temporaries stay cache-sized; a blocked result equals the whole-array
result bit for bit.  Values that are real by construction run in
float64: real-bound variables, ``re``, ``im``, ``abs2``, products ``x *
conj_expr(x)`` (evaluated as |x|^2 from x alone) and arithmetic over
those.  A square
root, logarithm or fractional power of a real operand runs in float64
unless some element of the call is negative; the call then starts over
with that operand promoted to complex, so the principal branches are
those of complex evaluation and the choice never depends on the blocks.
A promotion belongs to the root, or tuple of roots, it was met in, never
to its structure.  A caller that combines several expressions on one
grid can drive row blocks itself (:func:`row_blocks`); each call's
promotions then carry from block to block, so the blocks keep the whole
grid's bits.  A node whose structural conjugate is already computed,
under the same root or another of the tuple, is taken as the conjugate
of that value wherever this is bit for bit what evaluating it gives; at
branch cuts and signed zeros it is evaluated.
"""

from __future__ import annotations

import contextvars
import math
import operator
import warnings
import weakref
from collections import OrderedDict
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import (
    BranchCutWarning,
    DivisionNearZero,
    ExprSyntaxError,
    NonLiteralExponent,
    UnknownIdentifier,
    VariableMismatch,
)

#: Variables the language knows about.  ``t, s, p1, p2, p`` are real;
#: ``(z, zb)`` and ``(w, wb)`` are conjugate pairs.
VAR_NAMES = ("z", "zb", "t", "s", "p1", "p2", "w", "wb", "p")
CONJUGATE_PAIRS = {"z": "zb", "zb": "z", "w": "wb", "wb": "w"}
REAL_VARS = frozenset(v for v in VAR_NAMES if v not in CONJUGATE_PAIRS)

#: Directional derivative fields on the Heisenberg group, in terms of the
#: Wirtinger partials: Z = d_z + i*zb*d_t, Zbar = d_zb - i*z*d_t, T = d_t.
FIELDS = ("Z", "Zbar", "T")

_DIV_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# nodes

_set = object.__setattr__


class Expr:
    """Base class of all expression nodes.  Instances are immutable,
    apart from the memo slots ``_conj`` (:func:`conj_expr`) and ``_free``
    (:func:`free_vars`), each set once on first use.  A subclass lists its
    constructor arguments in ``_fields``."""

    __slots__ = ("_conj", "_free", "__weakref__")
    _fields: tuple = ()
    prec = 5  # printing precedence; atoms highest

    def __init__(self, *args):
        _set(self, "_conj", None)
        _set(self, "_free", None)
        for name, value in zip(self._fields, args):
            _set(self, name, value)

    def __setattr__(self, *a):  # pragma: no cover - defensive
        raise AttributeError("expression nodes are immutable")

    def _children(self) -> tuple:
        return ()

    # Building expressions with operators keeps calling code readable.
    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return sub(self, _as_expr(other))

    def __rsub__(self, other):
        return sub(_as_expr(other), self)

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __truediv__(self, other):
        return div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return div(_as_expr(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, expo):
        return powr(self, expo)

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return f"<{type(self).__name__} {to_string(self)}>"


class Const(Expr):
    __slots__ = _fields = ("value",)


class Var(Expr):
    __slots__ = _fields = ("name",)


class _Unary(Expr):
    __slots__ = _fields = ("arg",)

    def _children(self):
        return (self.arg,)


class _Binary(Expr):
    __slots__ = _fields = ("lhs", "rhs")

    def _children(self):
        return (self.lhs, self.rhs)


class Add(_Binary):
    __slots__ = ()
    prec = 1


class Sub(_Binary):
    __slots__ = ()
    prec = 1


class Mul(_Binary):
    __slots__ = ()
    prec = 2


class Div(_Binary):
    __slots__ = ()
    prec = 2


class Neg(_Unary):
    __slots__ = ()
    prec = 3


class PowR(Expr):
    """Power with a real literal exponent (principal branch)."""

    __slots__ = _fields = ("base", "expo")
    prec = 4

    def _children(self):
        return (self.base,)


class Sqrt(_Unary):
    __slots__ = ()


class Exp(_Unary):
    __slots__ = ()


class Log(_Unary):
    __slots__ = ()


class Sin(_Unary):
    __slots__ = ()


class Cos(_Unary):
    __slots__ = ()


class Re(_Unary):
    __slots__ = ()


class Im(_Unary):
    __slots__ = ()


class Abs2(_Unary):
    __slots__ = ()


# ---------------------------------------------------------------------------
# hash-consing constructors with constant folding

#: Every live operation node and constant under its key.  An entry goes
#: when its node dies; a key holds its children's ids, which cannot be
#: reused while the node lives, as the node keeps its children alive.
_INTERN: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _fkey(x: float) -> str:
    # hex distinguishes -0.0 from 0.0 and round-trips exactly
    return float(x).hex()


def _interned(cls, key, *args) -> Expr:
    node = _INTERN.get(key)
    if node is None:
        node = cls(*args)
        _INTERN[key] = node
    return node


def const(value) -> Const:
    v = complex(value)
    return _interned(Const, ("c", _fkey(v.real), _fkey(v.imag)), v)


ZERO = const(0.0)
ONE = const(1.0)


#: The variable atoms, held for the life of the process: a plan reads
#: the ``_conj`` memo of z and w to evaluate z * zb as |z|^2, so these
#: memos must not depend on whether an atom was dropped and rebuilt.
_VARS = {name: Var(name) for name in VAR_NAMES}


def var(name: str) -> Var:
    try:
        return _VARS[name]
    except KeyError:
        raise VariableMismatch(f"unknown variable {name!r}") from None


def _as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, complex)):
        return const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


def _is_const(e: Expr, value=None) -> bool:
    if not isinstance(e, Const):
        return False
    return value is None or e.value == value


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return _interned(Add, ("+", id(a), id(b)), a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value - b.value)
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return neg(b)
    return _interned(Sub, ("-", id(a), id(b)), a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return _interned(Mul, ("*", id(a), id(b)), a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b) and abs(b.value) >= _DIV_FLOOR:
        return const(a.value / b.value)
    if _is_const(b, 1):
        return a
    return _interned(Div, ("/", id(a), id(b)), a, b)


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return const(-a.value)
    return _interned(Neg, ("n", id(a)), a)


def powr(base: Expr, expo) -> Expr:
    expo = float(expo)
    if expo == 1.0:
        return base
    return _interned(PowR, ("^", id(base), _fkey(expo)), base, expo)


#: The folding constructor of each operation node type.  Every transform
#: rebuilds a node from new children through it (:func:`_rebuild`), and
#: the printer and the parser take the function names from it.
_CTORS: dict[type, Callable] = {Add: add, Sub: sub, Mul: mul, Div: div,
                                Neg: neg}


def _unary_ctor(cls):
    tag = cls.__name__.lower()

    def ctor(arg: Expr) -> Expr:
        return _interned(cls, (tag, id(arg)), arg)

    ctor.__name__ = tag
    _CTORS[cls] = ctor
    return ctor


sqrt = _unary_ctor(Sqrt)
exp = _unary_ctor(Exp)
log = _unary_ctor(Log)
sin = _unary_ctor(Sin)
cos = _unary_ctor(Cos)
re_part = _unary_ctor(Re)
im_part = _unary_ctor(Im)
abs2 = _unary_ctor(Abs2)

#: The function-call nodes of the text form and their names.
_FUNC_LABEL = {cls: ctor.__name__ for cls, ctor in _CTORS.items()
               if issubclass(cls, _Unary) and cls is not Neg}


def _rebuild(n: Expr, image: Callable[[Expr], Expr]) -> Expr:
    """The node of n's type and parameters over the images of its
    children."""
    t = type(n)
    if t is PowR:
        return powr(image(n.base), n.expo)
    if isinstance(n, _Binary):
        return _CTORS[t](image(n.lhs), image(n.rhs))
    return _CTORS[t](image(n.arg))


# ---------------------------------------------------------------------------
# parser

# ASCII only: str.isdigit also accepts superscripts and other scripts' digits
_DIGITS = frozenset("0123456789")


class _Tokenizer:
    """Tokens of `text` from `pos` on.  The token at `pos` is scanned
    once and kept until :meth:`take` moves past it."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._next = None

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        if self._next is None:
            self._next = self._scan()
        return self._next

    def take(self):
        kind, tok, off = self.peek()
        self._next = None
        self.pos = off + len(tok)
        return kind, tok, off

    def _scan(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("end", "", self.pos)
        c = self.text[self.pos]
        if c in "+-*/^()":
            return ("op", c, self.pos)
        if c in _DIGITS or c == ".":
            j = self.pos
            n = len(self.text)
            while j < n and self.text[j] in _DIGITS:
                j += 1
            if j < n and self.text[j] == ".":
                j += 1
                while j < n and self.text[j] in _DIGITS:
                    j += 1
            if j < n and self.text[j] in "eE":
                k = j + 1
                if k < n and self.text[k] in "+-":
                    k += 1
                if k < n and self.text[k] in _DIGITS:
                    j = k
                    while j < n and self.text[j] in _DIGITS:
                        j += 1
            tok = self.text[self.pos:j]
            if tok == ".":
                raise ExprSyntaxError("bad number", self.pos)
            if math.isinf(float(tok)):
                raise ExprSyntaxError("number overflows float64", self.pos)
            return ("num", tok, self.pos)
        if c.isalpha() or c == "_":
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            return ("ident", self.text[self.pos:j], self.pos)
        raise ExprSyntaxError(f"unexpected character {c!r}", self.pos)


def parse(text: str) -> Expr:
    """Parse expression text into an :class:`Expr`.

    Raises
    ------
    ExprSyntaxError
        On malformed input, a numeric literal that overflows float64 or
        parentheses, function calls or unary minus nested beyond the
        interpreter's recursion limit; the exception carries the byte
        offset.  Sums and products of any length are parsed by a loop.
    UnknownIdentifier
        For identifiers outside the variable and function vocabulary.
    NonLiteralExponent
        When the right operand of ``^`` is not a real literal.
    """
    tz = _Tokenizer(text)
    try:
        e = _parse_expr(tz)
    except RecursionError:
        raise ExprSyntaxError("expression nests too deeply", tz.pos) from None
    kind, tok, off = tz.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing {tok!r}", off)
    return e


def _parse_expr(tz: _Tokenizer) -> Expr:
    e = _parse_term(tz)
    while True:
        kind, tok, _ = tz.peek()
        if kind == "op" and tok in "+-":
            tz.take()
            rhs = _parse_term(tz)
            e = add(e, rhs) if tok == "+" else sub(e, rhs)
        else:
            return e


def _parse_term(tz: _Tokenizer) -> Expr:
    e = _parse_factor(tz)
    while True:
        kind, tok, _ = tz.peek()
        if kind == "op" and tok in "*/":
            tz.take()
            rhs = _parse_factor(tz)
            e = mul(e, rhs) if tok == "*" else div(e, rhs)
        else:
            return e


def _parse_factor(tz: _Tokenizer) -> Expr:
    e = _parse_unary(tz)
    kind, tok, _ = tz.peek()
    if kind == "op" and tok == "^":
        tz.take()
        e = powr(e, _parse_exponent(tz))
    return e


def _parse_unary(tz: _Tokenizer) -> Expr:
    kind, tok, _ = tz.peek()
    if kind == "op" and tok == "-":
        tz.take()
        return neg(_parse_unary(tz))
    return _parse_atom(tz)


def _parse_exponent(tz: _Tokenizer) -> float:
    # real literal: [-] number [/ number], optionally parenthesized
    kind, tok, off = tz.peek()
    parens = kind == "op" and tok == "("
    if parens:
        tz.take()
        kind, tok, off = tz.peek()
    sign = 1.0
    if kind == "op" and tok == "-":
        tz.take()
        sign = -1.0
        kind, tok, off = tz.peek()
    if kind != "num":
        raise NonLiteralExponent("exponent must be a real literal", off)
    tz.take()
    value = float(tok)
    kind, tok, off = tz.peek()
    # a rational exponent a/b is only recognized in the parenthesized
    # form, so a bare '/' after 'x^2' stays ordinary division
    if parens and kind == "op" and tok == "/":
        tz.take()
        kind, tok, off = tz.peek()
        if kind != "num":
            raise NonLiteralExponent("exponent must be a real literal", off)
        tz.take()
        den = float(tok)
        if den == 0.0:
            raise NonLiteralExponent("zero denominator in exponent", off)
        value /= den
    if parens:
        kind, tok, off = tz.peek()
        if not (kind == "op" and tok == ")"):
            raise NonLiteralExponent("exponent must be a real literal", off)
        tz.take()
    return sign * value


def _parse_atom(tz: _Tokenizer) -> Expr:
    kind, tok, off = tz.take()
    if kind == "num":
        return const(float(tok))
    if kind == "op" and tok == "(":
        e = _parse_expr(tz)
        kind, tok, off = tz.take()
        if not (kind == "op" and tok == ")"):
            raise ExprSyntaxError("expected ')'", off)
        return e
    if kind == "ident":
        if tok == "i":
            return const(1j)
        nkind, ntok, _ = tz.peek()
        if nkind == "op" and ntok == "(":
            if tok not in _FUNCTION_CTORS:
                raise UnknownIdentifier(f"unknown function {tok!r}", off)
            tz.take()
            arg = _parse_expr(tz)
            k2, t2, o2 = tz.take()
            if not (k2 == "op" and t2 == ")"):
                raise ExprSyntaxError("expected ')'", o2)
            return _FUNCTION_CTORS[tok](arg)
        if tok in VAR_NAMES:
            return var(tok)
        raise UnknownIdentifier(f"unknown identifier {tok!r}", off)
    raise ExprSyntaxError(f"unexpected {tok!r}", off)


_FUNCTION_CTORS: dict[str, Callable[[Expr], Expr]] = {
    "conj": lambda e: conj_expr(e),
    **{label: _CTORS[cls] for cls, label in _FUNC_LABEL.items()}}


# ---------------------------------------------------------------------------
# printing

def _fmt_real(x: float) -> str:
    return repr(float(x))


def _fmt_const(v: complex) -> tuple[str, int]:
    # returns text and effective precedence of the rendered form
    if v.imag == 0.0:
        text = _fmt_real(v.real)
        return text, (3 if v.real < 0 else 5)
    if v.real == 0.0:
        if v.imag == 1.0:
            return "i", 5
        return f"{_fmt_real(v.imag)}*i", 2
    return f"({_fmt_real(v.real)} + {_fmt_real(v.imag)}*i)", 5


def to_string(e: Expr) -> str:
    """Render an expression as text that :func:`parse` accepts.

    Reparsing the output yields an expression that evaluates identically
    (grouping is preserved with explicit parentheses; floats are printed
    with ``repr`` so they round-trip exactly).  A stack of pending nodes
    and literal text drives the rendering, so any depth prints.
    """
    out: list[str] = []
    stack: list = [e]
    while stack:
        n = stack.pop()
        t = type(n)
        if t is str:
            out.append(n)
        elif t is Const:
            out.append(_fmt_const(n.value)[0])
        elif t is Var:
            out.append(n.name)
        elif t in _INFIX:
            op, lmin, rmin = _INFIX[t]
            stack += _group(n.rhs, rmin)
            stack.append(op)
            stack += _group(n.lhs, lmin)
        elif t is Neg or t is PowR:
            if t is PowR:
                ex = n.expo
                stack.append(f"^{_fmt_real(ex)}" if ex >= 0
                             else f"^(-{_fmt_real(-ex)})")
            # '^' would bind to the printed '-', so exponents need parens
            c = n._children()[0]
            stack += (")", c, "(") if type(c) is PowR else _group(c, 3)
            if t is Neg:
                stack.append("-")
        else:
            stack += (")", n.arg, _FUNC_LABEL[t] + "(")
    return "".join(out)


#: Operator text and the least precedence of each operand printed bare.
_INFIX = {Add: (" + ", 1, 2), Sub: (" - ", 1, 2), Mul: ("*", 2, 3),
          Div: ("/", 2, 3)}


def _group(e: Expr, min_prec: int) -> tuple:
    """e as pending stack items, parenthesized below ``min_prec``."""
    return (")", e, "(") if _effective_prec(e) < min_prec else (e,)


def _effective_prec(e: Expr) -> int:
    if isinstance(e, Const):
        return _fmt_const(e.value)[1]
    return e.prec


# ---------------------------------------------------------------------------
# evaluation

def _topo(e, deps: Callable[[Expr], tuple] =
          operator.methodcaller("_children")) -> list[Expr]:
    """The nodes of the DAG under ``e``, each once, children first; for
    a tuple of roots, the union of their DAGs, walked root by root.

    This one linearization drives every evaluator (the checked
    :func:`evaluate`, the array plans of :func:`eval_array` and the code
    that :func:`compile_scalar` generates) and every structural
    transform.  ``deps(n)`` lists the nodes that n's result is made from:
    its children by default; a transform returns fewer where it stops
    early and more where a rule reads another node as well.  Over a plan
    structure's places (`_sub_plan`) it visits them as it visits the
    nodes they stand for.
    """
    order: list[Expr] = []
    seen: set[Expr] = set()
    stack: list = list(reversed(e)) if type(e) is tuple else [e]
    while stack:
        node = stack.pop()
        if node is None:    # every dep of the node beneath is in order
            order.append(stack.pop())
        elif node not in seen:
            seen.add(node)
            stack += (node, None)
            stack += deps(node)
    return order


def _coerce_binding(binding: Mapping) -> dict:
    vals = {}
    for name, v in binding.items():
        if name not in VAR_NAMES:
            raise VariableMismatch(f"unknown variable {name!r} in binding")
        if isinstance(v, np.ndarray):
            vals[name] = np.asarray(v, dtype=np.complex128)
        else:
            vals[name] = complex(v)
    for a, b in (("z", "zb"), ("w", "wb")):
        if a in vals and b in vals:
            za, zb_ = vals[a], vals[b]
            bad = abs(zb_ - np.conjugate(za)) > 1e-12 * (1.0 + abs(za))
            if np.any(bad):
                raise VariableMismatch(
                    f"binding has {b} inconsistent with conj({a})")
    return vals


def _int_expo(expo: float):
    """The exponent as an int for ``**``, or None for a fractional power."""
    n = round(expo)
    return int(n) if expo == n and abs(n) <= 128 else None


def _checked_pow(base, expo: float):
    n = _int_expo(expo)
    if n is not None:
        if n < 0 and abs(base) < _DIV_FLOOR:
            raise DivisionNearZero(f"0^{n} in power")
        try:
            return base ** n
        except (ZeroDivisionError, OverflowError):
            raise DivisionNearZero(f"overflow in ^{n}") from None
    if isinstance(base, complex) and base.imag == 0.0 and base.real < 0.0:
        warnings.warn("fractional power on the negative real axis",
                      BranchCutWarning, stacklevel=4)
    return np.power(base, expo)


def _checked_value(node: Expr, memo: dict, vals: dict):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        if node.name not in vals:
            raise VariableMismatch(f"unbound variable {node.name!r}")
        return vals[node.name]
    kids = [memo[id(c)] for c in node._children()]
    if isinstance(node, Add):
        return kids[0] + kids[1]
    if isinstance(node, Sub):
        return kids[0] - kids[1]
    if isinstance(node, Mul):
        return kids[0] * kids[1]
    if isinstance(node, Div):
        if abs(kids[1]) < _DIV_FLOOR:
            raise DivisionNearZero(f"denominator {kids[1]!r}")
        return kids[0] / kids[1]
    a = kids[0]
    if isinstance(node, Neg):
        return -a
    if isinstance(node, PowR):
        return _checked_pow(a, node.expo)
    if isinstance(node, Log):
        if isinstance(a, complex):
            if a.imag == 0.0 and a.real < 0.0:
                warnings.warn("log on the negative real axis",
                              BranchCutWarning, stacklevel=3)
            if abs(a) < _DIV_FLOOR:
                raise DivisionNearZero("log of zero")
        return np.log(a)
    if isinstance(node, Re):
        return complex(a.real) if isinstance(a, complex) else a.real + 0j
    if isinstance(node, Im):
        return complex(a.imag) if isinstance(a, complex) else a.imag + 0j
    if isinstance(node, Abs2):
        return a * np.conjugate(a)
    return _NP_FUNCS[type(node)](a)


def evaluate(e: Expr, binding: Mapping[str, complex]) -> complex:
    """Evaluate at a point, with the checked error semantics.

    Parameters
    ----------
    e : Expr
    binding : mapping from variable names to numbers.  When both halves of
        a conjugate pair are bound they must be numerically conjugate.

    Raises
    ------
    DivisionNearZero
        If a denominator magnitude falls below 1e-300.
    VariableMismatch
        For unbound variables or inconsistent conjugate bindings.

    Warns
    -----
    BranchCutWarning
        When a log or fractional power lands on the negative real axis.
    """
    vals = _coerce_binding(binding)
    memo: dict[int, object] = {}
    with np.errstate(all="ignore"):
        for node in _topo(e):
            memo[id(node)] = _checked_value(node, memo, vals)
    return complex(memo[id(e)])


# -- array plans --------------------------------------------------------------

#: Rows of a large broadcast grid go through a plan in blocks of about
#: this many points, so every temporary of the plan stays cache-sized:
#: 8k complex points are 128 KiB.  Of 2^11 to 2^16, 2^13 ran a cold
#: annulus-vertical request fastest; as every kernel is elementwise, the
#: size changes no bit.
_BLOCK = 1 << 13
#: Bound of each plan cache: the expressions last evaluated (`_PLANS`)
#: and the structures last compiled (`_STRUCTS`).
_PLAN_CAP = 128
_PLANS: OrderedDict = OrderedDict()
_STRUCTS: OrderedDict = OrderedDict()
#: Inside `row_blocks`, the promotions each root, or tuple of roots, has
#: met so far.
_CARRIED: contextvars.ContextVar = contextvars.ContextVar("_CARRIED",
                                                         default=None)

_NP_FUNCS = {Sqrt: np.sqrt, Exp: np.exp, Log: np.log, Sin: np.sin,
             Cos: np.cos}
_ARITH = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
          Div: operator.truediv}

#: Plan inputs that are not nodes: the binding and the constants' values.
_VALS, _CONSTS = -1, -2


class _Promote(Exception):
    """A node assumed real met a value that needs the complex branch; pos
    is the node's place in the plan's children-first order."""

    def __init__(self, pos: int):
        super().__init__()
        self.pos = pos


def _on_cut(t: type, expo) -> bool:
    """Whether an op of type t (and exponent expo, for a power) has a
    complex value that depends on the side of the negative real axis its
    argument lies on.  numpy takes integer powers of 100 and more
    through the logarithm, like fractional ones."""
    if t is Sqrt or t is Log:
        return True
    if t is PowR:
        k = _int_expo(expo)
        return k is None or abs(k) >= 100
    return False


def _mirror_guards(nodes: tuple, m: int, real: list):
    """Arguments whose values decide whether the conjugate of node m
    evaluates to the conjugate of m's value (up to the sign of zero
    parts) under an exact conjugate binding, or None when it never does.

    Real nodes evaluate alike on both sides.  Between them every op but
    the branch-cut ones commutes with conjugation; those do so when
    their argument is off the cut, which the returned arguments are
    checked for with :func:`_off_cut`.  A real-named variable bound to
    complex values breaks conj(s) = s.
    """
    stack, seen, args = [m], set(), []
    while stack:
        k = stack.pop()
        if k in seen or real[k]:
            continue
        seen.add(k)
        t, _, kids, param = nodes[k]
        if t is Var and param in REAL_VARS:
            return None
        if _on_cut(t, param):
            args.append(kids[0])
        stack.extend(kids)
    return args


def _off_cut(v) -> bool:
    """No element on the branch cut: none below zero for a real array,
    none on the closed negative real axis for a complex one."""
    if v.dtype.kind != "c":
        return not np.any(v < 0.0)
    return not np.any((v.imag == 0.0) & ~(v.real > 0.0))


def _exact_conj(v) -> bool:
    # every part nonzero, so no sign of zero can differ, and finite, as
    # conjugation flips the sign bit of a NaN part
    return np.count_nonzero(v.real) == v.size \
        and np.count_nonzero(v.imag) == v.size and np.isfinite(v.sum())


def _kinds(nodes: tuple, real_vars: frozenset, promoted: frozenset):
    """Whether each node is evaluated in float64, and the guards of the
    products x * conj_expr(x) that are evaluated as |x|^2."""
    real: list[bool] = []
    squares: dict[int, list] = {}
    for k, (t, _, kids, param) in enumerate(nodes):
        if t is Const:
            r = param
        elif t is Var:
            r = param in real_vars
        elif t in _REAL_OPS:
            r = True
        else:
            r = all(real[c] for c in kids)
            if t is Mul and k not in promoted and kids[0] != kids[1] \
                    and (nodes[kids[0]][1] == kids[1]
                         or nodes[kids[1]][1] == kids[0]):
                guards = _mirror_guards(nodes, kids[0], real)
                if guards is not None:
                    squares[k] = guards
                    r = True
            elif r and k in promoted:
                r = False
        real.append(r)
    return real, squares


def _abs2(x):
    r, i = x.real, x.imag
    out = r * r
    out += i * i
    return out


def _square(x):
    return x * x


def _same(x):
    return x


def _to_complex(x):
    return x.astype(np.complex128)


def _kernel(k: int, nodes: tuple, real: list, squares: dict):
    t, _, kids, param = nodes[k]
    if k in squares:
        guards = squares[k]
        if real[kids[0]]:
            return _square
        if not guards:
            return _abs2

        def square(x, *args):
            if all(map(_off_cut, args)):
                return _abs2(x)
            raise _Promote(k)
        return square
    if t in _ARITH:
        return _ARITH[t]
    if t is Neg:
        return operator.neg
    arg = real[kids[0]]
    if t is Abs2:
        return _square if arg else _abs2
    if t in (Re, Im):
        if arg:
            return _same if t is Re else np.zeros_like
        return operator.attrgetter("real" if t is Re else "imag")
    if t is PowR:
        i, expo = _int_expo(param), param
        if i is not None:
            return lambda x: x ** i

        def f(x):
            return np.power(x, expo)
    else:
        f = _NP_FUNCS[t]
    if not (arg and _on_cut(t, param)):
        return f
    if not real[k]:
        return lambda x: f(_to_complex(x))

    def assumed_real(x):
        if np.any(x < 0.0):
            raise _Promote(k)
        return f(x)
    return assumed_real


def _conjugate_of(struct: tuple, m: int, c: int, real: list):
    """Kernel and inputs that give node c, the structural conjugate of
    node m, from m's value, or None.  The conjugate is taken in a block
    only where it is bit for bit the value c evaluates to; otherwise c
    runs through the plan of its own DAG (`_sub_plan`), and a promotion
    raised there is passed on at c's node's place in this plan."""
    if real[m]:
        return _same, (m,)
    guards = _mirror_guards(struct[3], m, real)
    if guards is None:
        return None
    sub: list = []

    def conjugate(mv, vals, consts, *args):
        if _exact_conj(mv) and all(map(_off_cut, args)):
            return np.conjugate(mv)
        if not sub:
            sub.extend(_sub_plan(struct, c))
        plan, cmap, outer = sub
        try:
            return _run(plan, vals, [consts[j] for j in cmap])
        except _Promote as exc:
            raise _Promote(outer[exc.pos]) from None
    return conjugate, (m, _VALS, _CONSTS, *guards)


class _Plan(NamedTuple):
    steps: tuple        # (kernel, slot, input slots, slots released)
    slots: int          # slot 0 holds the binding, slot 1 the constants
    root: int | tuple   # the root's slot, or a tuple of the roots' slots
    names: frozenset    # the variables of the DAG
    root_names: tuple   # the variables under each root


def _structure(e, real_vars: frozenset, reuse: bool, promoted: frozenset):
    """The structure of the plan of e, an expression or a tuple of
    roots, and the values of its constants.

    The structure holds what compiling reads and no node: real_vars,
    reuse and the places of the promoted nodes; for each node in `_topo`
    order its type, the place of its ``_conj`` memo's node when that is
    another node of the DAG (else -1; a constant's is never read) and
    its children's places, with whether a constant is real, a variable's
    name or a power's exponent; and the root's place, or a tuple of the
    roots' places.  Expressions that differ only in the values of their
    constants share one structure and one plan."""
    order = _topo(e)
    pos = {n: k for k, n in enumerate(order)}
    nodes, consts = [], []
    for n in order:
        t = type(n)
        if t is Const:
            v = n.value
            r = v.imag == 0.0
            consts.append(np.float64(v.real) if r else np.complex128(v))
            nodes.append((t, -1, (), r))
            continue
        p = n._conj
        nodes.append((t, -1 if p is n else pos.get(p, -1),
                      tuple(map(pos.__getitem__, n._children())),
                      n.name if t is Var else n.expo if t is PowR else None))
    root = tuple(map(pos.__getitem__, e)) if type(e) is tuple else pos[e]
    return (real_vars, reuse, promoted, tuple(nodes), root), consts


def _sub_plan(struct: tuple, c: int):
    """The plan of the DAG under node c of struct, as `_plan` compiles it
    for that DAG alone with conjugate reuse: that plan, the indices of
    its constants among struct's and the place in struct of each of its
    nodes."""
    real_vars, _, promoted, nodes, _ = struct
    # the places under c in the order `_topo` visits their nodes
    order = _topo(c, lambda k: nodes[k][2])
    new = {k: i for i, k in enumerate(order)}
    cidx = {k: j for j, k in enumerate(
        k for k, nd in enumerate(nodes) if nd[0] is Const)}
    sub = tuple((t, new.get(p, -1), tuple(new[j] for j in kids), param)
                for t, p, kids, param in map(nodes.__getitem__, order))
    plan = _compiled((real_vars, True,
                      frozenset(new[k] for k in promoted if k in new), sub,
                      len(sub) - 1))
    return plan, [cidx[k] for k in order if k in cidx], order


def _compile_plan(struct: tuple) -> _Plan:
    """Steps in children-first order over the nodes that some root
    needs.  A slot is released after its last read by any step; the
    roots' slots live to the end."""
    real_vars, reuse, promoted, nodes, root = struct
    roots = root if type(root) is tuple else (root,)
    real, squares = _kinds(nodes, real_vars, promoted)
    # (kernel, inputs) per node; _VALS and _CONSTS stand for the binding
    # and the constants' values
    spec = []
    nconst = 0
    for k, (t, _, kids, param) in enumerate(nodes):
        if t is Const:
            spec.append((operator.itemgetter(nconst), (_CONSTS,)))
            nconst += 1
        elif t is Var:
            spec.append((operator.itemgetter(param), (_VALS,)))
        else:
            spec.append((_kernel(k, nodes, real, squares),
                         (kids[0], *squares[k]) if k in squares else kids))
    if reuse:
        for k, (_, p, _, _) in enumerate(nodes):
            if p < 0:
                continue
            m, c = (k, p) if k < p else (p, k)
            if nodes[c][0] in (Const, Var):
                continue
            got = _conjugate_of(struct, m, c, real)
            if got is not None:
                spec[c] = got
    needed: set[int] = set()
    stack = list(roots)
    while stack:
        k = stack.pop()
        if k >= 0 and k not in needed:
            needed.add(k)
            stack.extend(spec[k][1])
    live = sorted(needed)
    slot = {_VALS: 0, _CONSTS: 1, **{k: i + 2 for i, k in enumerate(live)}}
    steps = [(spec[k][0], slot[k], tuple(slot[a] for a in spec[k][1]))
             for k in live]
    last = {a: k for k, (_, _, src) in enumerate(steps) for a in src}
    keep = {0, 1, *(slot[k] for k in roots)}
    drops: list[list] = [[] for _ in steps]
    for a, k in last.items():
        if a not in keep:
            drops[k].append(a)
    names = [frozenset(nodes[k][3] for k in _topo(r, lambda k: nodes[k][2])
                       if nodes[k][0] is Var) for r in roots]
    return _Plan(tuple((fn, s, src, tuple(d))
                       for (fn, s, src), d in zip(steps, drops)),
                 len(slot), tuple(slot[k] for k in roots)
                 if type(root) is tuple else slot[root],
                 frozenset(nd[3] for nd in nodes if nd[0] is Var),
                 tuple(names))


def _lru(cache: OrderedDict, key, make):
    """cache[key], made by make() on a miss, in an LRU of `_PLAN_CAP`."""
    got = cache.get(key)
    if got is None:
        got = cache[key] = make()
        if len(cache) > _PLAN_CAP:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return got


def _compiled(struct: tuple) -> _Plan:
    return _lru(_STRUCTS, struct, lambda: _compile_plan(struct))


def _plan(e, real_vars: frozenset, reuse: bool,
          promoted: frozenset) -> tuple:
    """(plan, constants' values) of e, an expression or a tuple of
    roots; promoted holds places of e's nodes in `_topo` order."""
    def make():
        struct, consts = _structure(e, real_vars, reuse, promoted)
        return _compiled(struct), consts
    return _lru(_PLANS, (e, real_vars, reuse, promoted), make)


def _run(plan: _Plan, vals: dict, consts):
    """The root's value, or a tuple of the roots' values."""
    env = [vals, consts] + [None] * (plan.slots - 2)
    for fn, dst, src, drop in plan.steps:
        env[dst] = fn(*[env[a] for a in src])
        for a in drop:
            env[a] = None
    root = plan.root
    return tuple(map(env.__getitem__, root)) if type(root) is tuple \
        else env[root]


def _array_binding(binding: Mapping):
    """Bindings as float64 (real-valued input) or complex128 values, and
    the set of names bound to real values."""
    vals, real = {}, set()
    for name, v in binding.items():
        if name not in VAR_NAMES:
            raise VariableMismatch(f"unknown variable {name!r} in binding")
        if isinstance(v, np.ndarray):
            cplx = v.dtype.kind == "c"
            vals[name] = np.asarray(
                v, dtype=np.complex128 if cplx else np.float64)
        else:
            cplx = isinstance(v, (complex, np.complexfloating))
            vals[name] = np.complex128(v) if cplx else np.float64(float(v))
        if not cplx:
            real.add(name)
    return vals, frozenset(real)


def eval_array(e, binding: Mapping):
    """Vectorized evaluation over numpy arrays (unchecked fast path).

    Array bindings broadcast against each other.  Division by zero and
    powers of zero produce inf/nan silently; quadrature callers treat
    non-finite panel values as a refinement signal.  Conjugate pairs
    must be bound to exact conjugates (``zb = np.conj(z)``): products
    ``x * conj_expr(x)`` read x only, and a conjugate already computed
    is reused.  The result is complex128 with the broadcast shape of
    the variables that ``e`` uses.

    ``e`` may be a tuple of roots: they run as one plan over the union
    of their DAGs, so a node they share is evaluated once, and the call
    returns a tuple of results, each the bits its root gives alone.
    """
    return _eval_array(e, binding, _BLOCK, True)


def _eval_array(e, binding: Mapping, block: int, reuse: bool):
    vals, real = _array_binding(binding)
    carried, key = _CARRIED.get(), (e, real, reuse)
    promoted = carried.get(key, frozenset()) if carried else frozenset()
    plan, consts = _plan(e, real, reuse, promoted)
    missing = plan.names - vals.keys()
    if missing:
        raise VariableMismatch(f"unbound variable {min(missing)!r}")
    shape = np.broadcast_shapes(*(np.shape(vals[v]) for v in plan.names))
    size = math.prod(shape)
    with np.errstate(all="ignore"):
        while True:
            try:
                got = _run(plan, vals, consts) \
                    if size <= block or shape[0] == 1 else \
                    _run_blocked(plan, vals, consts, shape,
                                 max(1, block // (size // shape[0])))
                break
            except _Promote as exc:
                promoted = promoted | {exc.pos}
                if carried is not None:
                    carried[key] = promoted
                plan, consts = _plan(e, real, reuse, promoted)
    if type(e) is tuple:
        return tuple(np.asarray(v, dtype=np.complex128) for v in got)
    return np.asarray(got, dtype=np.complex128)


def _run_blocked(plan: _Plan, vals: dict, consts, shape: tuple, rows: int):
    """_run over blocks of rows of the broadcast shape.  A root that
    varies along the rows is written block by block into an array of
    its own shape; any other root has one value on every block."""
    shapes = [np.broadcast_shapes(*(np.shape(vals[v]) for v in names))
              for names in plan.root_names]
    rowwise = [len(sh) == len(shape) and sh[0] > 1 for sh in shapes]
    outs: list = [np.empty(sh, dtype=np.complex128) if r else None
                  for sh, r in zip(shapes, rowwise)]
    for lo in range(0, shape[0], rows):
        got = _run(plan, binding_rows(vals, shape, slice(lo, lo + rows)),
                   consts)
        for j, v in enumerate(got if type(plan.root) is tuple else (got,)):
            if rowwise[j]:
                outs[j][lo:lo + rows] = v
            else:
                outs[j] = v
    return tuple(outs) if type(plan.root) is tuple else outs[0]


def binding_rows(binding: Mapping, shape: tuple, rows: slice) -> dict:
    """The binding restricted to some rows of its broadcast shape: each
    array that spans the rows is sliced, any other value broadcasts as
    it is."""
    return {v: a[rows] if np.ndim(a) == len(shape) and np.shape(a)[0] > 1
            else a for v, a in binding.items()}


def row_blocks(rows: int, width: int, run: Callable[[slice], None]):
    """Call run(block) on row slices of a (rows, width) grid, at most
    `_BLOCK` points each and at least one row, so a caller that
    evaluates several expressions and combines them never holds a
    whole-grid temporary.

    Within the call each `eval_array` of a root, or of a tuple of roots,
    starts from the promotions it met on earlier blocks, on whatever
    grid, and when a block after the first promotes a node the blocks
    run again from the first.  So every block runs each call's one plan,
    and as every kernel is elementwise the blocks give the bits of one
    whole-grid call.  run must write each block's results into that
    block's rows only, so a block run again overwrites them.
    """
    step = max(1, _BLOCK // max(width, 1))
    carried: dict = {}
    token = _CARRIED.set(carried)
    try:
        lo = 0
        while lo < rows:
            met = sum(map(len, carried.values()))
            run(slice(lo, lo + step))
            grew = sum(map(len, carried.values())) > met
            lo = 0 if lo and grew else lo + step
    finally:
        _CARRIED.reset(token)


# ---------------------------------------------------------------------------
# structural transforms

def free_vars(e: Expr) -> frozenset[str]:
    """The names of the variables in ``e``, memoized on every node."""
    if e._free is None:
        for n in _topo(e, lambda n: n._children() if n._free is None
                       else ()):
            if n._free is not None:
                continue
            t = type(n)
            if t is Var:
                out = frozenset((n.name,))
            elif t is Const:
                out = frozenset()
            elif isinstance(n, _Binary):
                # a child's own set when the union adds nothing, so the
                # sets are shared up the tree rather than copied
                a, b = n.lhs._free, n.rhs._free
                out = a if b <= a else b if a <= b else a | b
            else:
                out = n._children()[0]._free
            _set(n, "_free", out)
    return e._free


def conj_expr(e: Expr) -> Expr:
    """Structural conjugate: swaps conjugate-pair variables, conjugates
    constants (a real one is its own conjugate, so a real subtree maps to
    itself), and maps every operation through itself.

    Evaluating the result equals conjugating the evaluation whenever the
    binding is consistent (real variables real, ``zb = conj(z)``) and no
    argument of ``log``/``sqrt``/fractional powers sits on a branch cut.
    The conjugate of each node visited is memoized on it.
    """
    if e._conj is None:
        for n in _topo(e, lambda n: () if n._conj is not None
                       or type(n) in _REAL_OPS else n._children()):
            if n._conj is not None:
                continue
            t = type(n)
            if t is Const:
                out = n if n.value.imag == 0.0 else const(n.value.conjugate())
            elif t is Var:
                out = var(CONJUGATE_PAIRS.get(n.name, n.name))
            elif t in _REAL_OPS:
                out = n
            else:
                out = _rebuild(n, _conj_of)
            _set(n, "_conj", out)
    return e._conj


#: Operations whose value is real, so that they are their own conjugate.
_REAL_OPS = (Re, Im, Abs2)
_conj_of = operator.attrgetter("_conj")


def diff(e: Expr, v: str) -> Expr:
    """Wirtinger partial derivative with respect to variable ``v``.

    All nine variables are treated as independent: ``diff(var('zb'), 'z')``
    is zero.  ``re``, ``im`` and ``abs2`` differentiate through their
    rewriting in terms of the structural conjugate.
    """
    if v not in VAR_NAMES:
        raise VariableMismatch(f"unknown variable {v!r}")
    partner = CONJUGATE_PAIRS.get(v)
    d: dict[Expr, Expr] = {}

    def deps(n):
        names = free_vars(n)
        # The partner variable matters: re/im/abs2 subtrees differentiate
        # through the structural conjugate of their argument, which swaps
        # the pair; conj_expr leaves it on the argument's _conj.
        if v not in names and partner not in names:
            d[n] = ZERO
            return ()
        if type(n) in _REAL_OPS:
            return (n.arg, conj_expr(n.arg))
        return n._children()

    for n in _topo(e, deps):
        if n in d:
            continue
        t = type(n)
        if t is Var:
            out = ONE if n.name == v else ZERO
        elif t is Add:
            out = add(d[n.lhs], d[n.rhs])
        elif t is Sub:
            out = sub(d[n.lhs], d[n.rhs])
        elif t is Mul:
            out = add(mul(d[n.lhs], n.rhs), mul(n.lhs, d[n.rhs]))
        elif t is Div:
            num = sub(mul(d[n.lhs], n.rhs), mul(n.lhs, d[n.rhs]))
            out = div(num, mul(n.rhs, n.rhs))
        elif t is Neg:
            out = neg(d[n.arg])
        elif t is PowR:
            out = mul(mul(const(n.expo), powr(n.base, n.expo - 1.0)),
                      d[n.base])
        elif t is Sqrt:
            out = div(d[n.arg], mul(const(2.0), sqrt(n.arg)))
        elif t is Exp:
            out = mul(d[n.arg], n)
        elif t is Log:
            out = div(d[n.arg], n.arg)
        elif t is Sin:
            out = mul(d[n.arg], cos(n.arg))
        elif t is Cos:
            out = neg(mul(d[n.arg], sin(n.arg)))
        elif t is Re:
            out = div(add(d[n.arg], d[n.arg._conj]), const(2.0))
        elif t is Im:
            out = div(sub(d[n.arg], d[n.arg._conj]), const(2j))
        elif t is Abs2:
            cj = n.arg._conj
            out = add(mul(d[n.arg], cj), mul(n.arg, d[cj]))
        else:  # pragma: no cover
            raise TypeError(f"unhandled node {t.__name__}")
        d[n] = out
    return d[e]


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions (capture is the caller's problem)."""
    for name in mapping:
        if name not in VAR_NAMES:
            raise VariableMismatch(f"unknown variable {name!r}")
    new: dict[Expr, Expr] = {}
    for n in _topo(e):
        t = type(n)
        if t is Var:
            new[n] = mapping.get(n.name, n)
        elif t is Const:
            new[n] = n
        else:
            new[n] = _rebuild(n, new.__getitem__)
    return new[e]


def apply_field(e: Expr, field: str) -> Expr:
    """Apply one of the frame fields Z, Zbar, T to a point-space expression.

    ``Z = d_z + i*zb*d_t`` and ``Zbar = d_zb - i*z*d_t`` span the contact
    planes; ``T = d_t`` is the vertical field.  The expression must live in
    the variables ``z, zb, t`` only.
    """
    bad = free_vars(e) - {"z", "zb", "t"}
    if bad:
        raise VariableMismatch(
            f"field {field} needs a point-space expression; found {sorted(bad)}")
    if field == "Z":
        return add(diff(e, "z"), mul(mul(const(1j), var("zb")), diff(e, "t")))
    if field == "Zbar":
        return sub(diff(e, "zb"), mul(mul(const(1j), var("z")), diff(e, "t")))
    if field == "T":
        return diff(e, "t")
    raise ValueError(f"unknown field {field!r}; expected one of {FIELDS}")


# ---------------------------------------------------------------------------
# scalar compilation for the hot loop of ODE tracing

_COMPILED_FUNCS = {Sqrt: "_sqrt", Exp: "_exp", Log: "_log", Sin: "_sin",
                   Cos: "_cos"}


def compile_scalar(e: Expr, argnames: tuple[str, ...]) -> Callable:
    """Compile an expression to a plain Python function of scalars.

    The generated function takes ``argnames`` positionally as complex
    numbers and returns a complex number.  Shared subtrees are computed
    once.  Semantics match :func:`eval_array` (no checked errors, no
    branch-cut warnings); it exists because tree evaluation per point is
    too slow inside adaptive ODE stepping.
    """
    missing = free_vars(e) - set(argnames)
    if missing:
        raise VariableMismatch(f"unbound variables {sorted(missing)}")
    order = _topo(e)
    names = {id(n): f"v{k}" for k, n in enumerate(order)}
    lines = []
    for n in order:
        tgt = names[id(n)]
        if isinstance(n, Const):
            lines.append(f"{tgt} = {complex(n.value)!r}")
        elif isinstance(n, Var):
            lines.append(f"{tgt} = {n.name}")
        elif isinstance(n, Add):
            lines.append(f"{tgt} = {names[id(n.lhs)]} + {names[id(n.rhs)]}")
        elif isinstance(n, Sub):
            lines.append(f"{tgt} = {names[id(n.lhs)]} - {names[id(n.rhs)]}")
        elif isinstance(n, Mul):
            lines.append(f"{tgt} = {names[id(n.lhs)]} * {names[id(n.rhs)]}")
        elif isinstance(n, Div):
            lines.append(f"{tgt} = {names[id(n.lhs)]} / {names[id(n.rhs)]}")
        elif isinstance(n, Neg):
            lines.append(f"{tgt} = -{names[id(n.arg)]}")
        elif isinstance(n, PowR):
            ex = n.expo
            src = names[id(n.base)]
            if ex == round(ex) and abs(ex) <= 128:
                lines.append(f"{tgt} = {src} ** {int(round(ex))}")
            else:
                lines.append(f"{tgt} = {src} ** {float(ex)!r}")
        elif isinstance(n, Re):
            lines.append(f"{tgt} = complex(({names[id(n.arg)]}).real)")
        elif isinstance(n, Im):
            lines.append(f"{tgt} = complex(({names[id(n.arg)]}).imag)")
        elif isinstance(n, Abs2):
            src = names[id(n.arg)]
            lines.append(f"{tgt} = {src} * ({src}).conjugate()")
        else:
            fn = _COMPILED_FUNCS[type(n)]
            lines.append(f"{tgt} = {fn}(complex({names[id(n.arg)]}))")
    body = "\n    ".join(lines) if lines else "pass"
    src = (f"def _f({', '.join(argnames)}):\n"
           f"    {body}\n"
           f"    return {names[id(e)]}\n")
    import cmath

    ns = {"_sqrt": cmath.sqrt, "_exp": cmath.exp, "_log": cmath.log,
          "_sin": cmath.sin, "_cos": cmath.cos}
    exec(compile(src, "<heismod-expr>", "exec"), ns)
    return ns["_f"]
