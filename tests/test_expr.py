"""Expression language: parsing, printing, evaluation, Wirtinger calculus."""

import gc
import math
import subprocess
import sys
import warnings
import weakref
from typing import Mapping

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heismod import expr as E
from heismod import modulus
from heismod.expr import (
    _DIV_FLOOR, VAR_NAMES, Abs2, Add, Const, Cos, Div, Exp, Expr, Im, Log,
    Mul, Neg, PowR, Re, Sin, Sqrt, Sub, Var)
from heismod.errors import (
    BranchCutWarning,
    DivisionNearZero,
    ExprSyntaxError,
    NonLiteralExponent,
    UnknownIdentifier,
    VariableMismatch,
)
from heismod.foliation import column_binding, leaf_speed_fn
from heismod.scenarios import list_scenarios, load_scenario

Q0_TEXT = ("conj(z)^2 * (t^2 + (z*conj(z))^2)^(2/3)"
           " / ((z*conj(z))^(4/3) * (t + i*z*conj(z))^2)")


def bind(z, t=0.0, **extra):
    b = {"z": z, "zb": complex(z).conjugate(), "t": t}
    b.update(extra)
    return b


# ---------------------------------------------------------------------------
# parsing

def test_parse_variable():
    e = E.parse("z")
    assert isinstance(e, E.Var) and e.name == "z"


def test_parse_conj_desugars_to_zb():
    e = E.parse("conj(z)")
    assert isinstance(e, E.Var) and e.name == "zb"
    e2 = E.parse("conj(z)*z")
    assert E.evaluate(e2, bind(3 + 4j)) == pytest.approx(25.0)


def test_parse_precedence():
    assert E.evaluate(E.parse("1+2*3"), {}) == 7
    assert E.evaluate(E.parse("(1+2)*3"), {}) == 9
    assert E.evaluate(E.parse("2*3^2"), {}) == 18
    # '^' grabs the whole unary, so -z^2 is (-z)^2
    assert E.evaluate(E.parse("-z^2"), bind(2.0)) == 4
    # bare '/' after an exponent is division, parenthesized it is rational
    assert E.evaluate(E.parse("z^2/3"), bind(3.0)) == pytest.approx(3.0)
    assert E.evaluate(E.parse("z^(1/2)"), bind(9.0)) == pytest.approx(3.0)


def test_parse_rational_and_negative_exponents():
    assert E.evaluate(E.parse("z^(2/3)"), bind(8.0)).real == pytest.approx(4.0)
    assert E.evaluate(E.parse("z^-2"), bind(2.0)) == pytest.approx(0.25)
    assert E.evaluate(E.parse("z^(-1/2)"), bind(4.0)) == pytest.approx(0.5)


def test_parse_imaginary_unit():
    assert E.evaluate(E.parse("i*i"), {}) == -1
    assert E.evaluate(E.parse("exp(i*t)"), {"t": math.pi}) == pytest.approx(-1.0)


def test_parse_errors_carry_offsets():
    with pytest.raises(NonLiteralExponent) as err:
        E.parse("z^t")
    assert err.value.offset == 2
    with pytest.raises(UnknownIdentifier):
        E.parse("z + bogus")
    with pytest.raises(UnknownIdentifier):
        E.parse("frob(z)")
    with pytest.raises(ExprSyntaxError):
        E.parse("z + ")
    with pytest.raises(ExprSyntaxError):
        E.parse("(z")
    with pytest.raises(ExprSyntaxError):
        E.parse("z^2^3")  # no chained exponents in the grammar


def test_parse_takes_only_ascii_digits_and_finite_literals():
    # str.isdigit accepts superscripts and other scripts' digits
    for text, offset in [("\u00b9", 0), ("\u00b2z", 0), ("\u0663", 0),
                         ("z + 3.\u0663", 6), ("1e999", 0), ("z^1e999", 2),
                         ("(" * 5000 + "z", None)]:
        with pytest.raises(ExprSyntaxError) as err:
            E.parse(text)
        assert offset is None or err.value.offset == offset, text


# grammar tokens mixed with arbitrary characters, so that the text
# reaches past the tokenizer often enough to exercise the parser
_PARSE_TOKENS = st.sampled_from(
    ["z", "zb", "t", "i", "w", "s", "p1", "1", "2.5", ".", "e", "E", "1e3",
     "+", "-", "*", "/", "^", "(", ")", " ", "sqrt(", "conj(", "exp(",
     "log(", "sin(", "\u00b2", "\u0663", "1e999"])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.one_of(_PARSE_TOKENS, st.characters()),
                max_size=24).map("".join))
@example("\u00b9")
def test_parse_any_text_returns_expr_or_syntax_error(text):
    try:
        e = E.parse(text)
    except ExprSyntaxError as err:
        assert 0 <= err.offset <= len(text)
    else:
        assert isinstance(e, Expr)


def test_nested_conj():
    assert E.parse("conj(conj(z))") is E.parse("z")
    e = E.parse("conj(i*z + t)")
    v = E.evaluate(e, bind(1 + 2j, 0.5))
    assert v == pytest.approx((1j * (1 + 2j) + 0.5).conjugate())


# ---------------------------------------------------------------------------
# evaluation semantics

def test_eval_examples():
    assert E.evaluate(E.parse("z*conj(z)"), bind(3 + 4j)) == pytest.approx(25.0)
    v = E.evaluate(E.parse("t + i*z*conj(z)"), bind(1 + 0j, 2.0))
    assert v == pytest.approx(2 + 1j)
    v = E.evaluate(E.parse("(z*conj(z))^(2/3)"), bind(8.0))
    assert v == pytest.approx(16.0)


def test_eval_requires_consistent_conjugates():
    with pytest.raises(VariableMismatch):
        E.evaluate(E.parse("z*zb"), {"z": 1 + 1j, "zb": 1 + 1j})
    # consistent binding passes
    E.evaluate(E.parse("z*zb"), {"z": 1 + 1j, "zb": 1 - 1j})


def test_eval_unbound_variable():
    with pytest.raises(VariableMismatch):
        E.evaluate(E.parse("z + s"), bind(1.0))


def test_division_near_zero():
    with pytest.raises(DivisionNearZero):
        E.evaluate(E.parse("1/z"), bind(0.0))
    with pytest.raises(DivisionNearZero):
        E.evaluate(E.parse("z^-2"), bind(0.0))


def test_branch_cut_warnings():
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        E.evaluate(E.parse("log(z)"), bind(-1.0))
        E.evaluate(E.parse("z^0.5"), bind(-4.0))
    assert [type(w.message) for w in rec] == [BranchCutWarning] * 2
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        E.evaluate(E.parse("z^2"), bind(-4.0))  # integer powers never warn
    assert rec == []


def test_eval_array_matches_scalar():
    e = E.parse(Q0_TEXT)
    rng = np.random.default_rng(7)
    zs = rng.normal(size=8) + 1j * rng.normal(size=8)
    ts = rng.normal(size=8)
    arr = E.eval_array(e, {"z": zs, "zb": zs.conj(), "t": ts})
    for k in range(8):
        v = E.evaluate(e, bind(zs[k], ts[k]))
        assert abs(arr[k] - v) <= 1e-13 * abs(v)


def test_eval_array_broadcasts():
    e = E.parse("z + t")
    out = E.eval_array(e, {"z": np.ones((3, 1)), "t": np.arange(4.0)})
    assert out.shape == (3, 4)


# ---------------------------------------------------------------------------
# printing round trip

def random_expr(rng, depth=0):
    leaves = [lambda: E.var(rng.choice(["z", "zb", "t", "s", "p1", "p2"])),
              lambda: E.const(complex(round(rng.uniform(-3, 3), 3),
                                      round(rng.uniform(-3, 3), 3)))]
    if depth > 4:
        return leaves[rng.integers(len(leaves))]()
    r = rng.integers(10)
    if r < 2:
        return leaves[r]()
    a = random_expr(rng, depth + 1)
    b = random_expr(rng, depth + 1)
    ops = [lambda: E.add(a, b), lambda: E.sub(a, b), lambda: E.mul(a, b),
           lambda: E.div(a, b), lambda: E.neg(a),
           lambda: E.powr(a, float(rng.integers(-3, 4))),
           lambda: E.powr(a, round(rng.uniform(-2, 2), 2)),
           lambda: E.sin(a), lambda: E.cos(a), lambda: E.exp(a),
           lambda: E.re_part(a), lambda: E.im_part(a), lambda: E.abs2(a)]
    return ops[rng.integers(len(ops))]()


def test_print_parse_round_trip_random():
    rng = np.random.default_rng(42)
    pts = []
    for _ in range(12):
        z = complex(rng.uniform(0.2, 2), rng.uniform(0.2, 2))
        pts.append({"z": z, "zb": z.conjugate(), "t": rng.uniform(0.5, 2),
                    "s": rng.uniform(0.5, 2), "p1": rng.uniform(0.5, 2),
                    "p2": rng.uniform(0.5, 2)})
    for _ in range(200):
        e = random_expr(rng)
        text = E.to_string(e)
        e2 = E.parse(text)
        for b in pts[:3]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    v1 = E.evaluate(e, b)
                except DivisionNearZero:
                    continue
            v2 = E.evaluate(e2, b)
            if np.isfinite(v1) and np.isfinite(v2):
                assert v1 == v2, f"{text}: {v1} != {v2}"


def test_print_negative_power_base():
    e = E.powr(E.const(-2j), 3.0)
    assert E.evaluate(E.parse(E.to_string(e)), {}) == (-2j) ** 3
    e = E.neg(E.powr(E.var("z"), 2.0))
    assert E.evaluate(E.parse(E.to_string(e)), bind(3.0)) == -9


# ---------------------------------------------------------------------------
# derivatives

def test_diff_basic():
    z = E.var("z")
    d = E.diff(E.mul(z, z), "z")
    assert E.evaluate(d, bind(3 + 1j)) == pytest.approx(2 * (3 + 1j))
    assert E.diff(E.var("z"), "zb") is E.ZERO
    assert E.diff(E.var("zb"), "z") is E.ZERO


def test_diff_power_example():
    e = E.parse("(z*conj(z))^(2/3)")
    d = E.diff(e, "z")
    z = 1.5 + 0.5j
    expected = (2 / 3) * (z * z.conjugate()) ** (-1 / 3) * z.conjugate()
    assert E.evaluate(d, bind(z)) == pytest.approx(expected, rel=1e-12)


def test_diff_through_im_in_composite():
    e = E.mul(E.var("t"), E.im_part(E.var("z")))
    d = E.diff(e, "zb")
    # t * d_zb[(z - zb)/(2i)] = t * i/2
    assert E.evaluate(d, bind(2 + 3j, 5.0)) == pytest.approx(2.5j)


def central_wirtinger(e, b, h=1e-5):
    """Finite-difference Wirtinger partials (d_z, d_zb, d_t)."""
    def at(dz=0.0, dt=0.0):
        z = complex(b["z"]) + dz
        return E.evaluate(e, {**b, "z": z, "zb": z.conjugate(),
                              "t": b.get("t", 0.0) + dt})
    fx = (at(dz=h) - at(dz=-h)) / (2 * h)
    fy = (at(dz=1j * h) - at(dz=-1j * h)) / (2 * h)
    ft = (at(dt=h) - at(dt=-h)) / (2 * h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy), ft


@pytest.mark.parametrize("text", [
    "z^3 + conj(z)*t",
    "sin(z)*cos(conj(z))",
    "exp(i*t + z)",
    "abs2(z)^(2/3)",
    "im(z*z) + re(conj(z)*t)",
    "1/(t + i*z*conj(z))",
    "sqrt(z*conj(z))",
    "log(z*conj(z) + t^2)",
])
def test_diff_matches_finite_differences(text):
    e = E.parse(text)
    rng = np.random.default_rng(hash(text) % 2**32)
    for _ in range(5):
        z = complex(rng.uniform(0.4, 1.6), rng.uniform(0.3, 1.5))
        b = bind(z, rng.uniform(0.5, 2.0))
        fd = central_wirtinger(e, b)
        for v, ref in zip(("z", "zb", "t"), fd):
            got = E.evaluate(E.diff(e, v), b)
            tol = 1e-6 * max(abs(ref), abs(got)) + 1e-8
            assert abs(got - ref) <= tol, (text, v, got, ref)


def test_apply_field_examples():
    assert E.apply_field(E.var("z"), "Z") is E.ONE
    assert E.apply_field(E.var("z"), "Zbar") is E.ZERO
    got = E.evaluate(E.apply_field(E.var("t"), "Z"), bind(2 - 1j))
    assert got == pytest.approx(1j * (2 + 1j))
    cr = E.parse("t + i*z*conj(z)")
    rng = np.random.default_rng(3)
    for _ in range(6):
        b = bind(complex(rng.normal(), rng.normal()), rng.normal())
        assert abs(E.evaluate(E.apply_field(cr, "Zbar"), b)) < 1e-14


def test_apply_field_rejects_parameter_expressions():
    with pytest.raises(VariableMismatch):
        E.apply_field(E.parse("z + s"), "Z")


def test_conj_expr_commutes_with_evaluation():
    rng = np.random.default_rng(11)
    for _ in range(60):
        e = random_expr(rng)
        ce = E.conj_expr(e)
        z = complex(rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5))
        b = {"z": z, "zb": z.conjugate(), "t": rng.uniform(0.3, 1.5),
             "s": rng.uniform(0.3, 1.5), "p1": rng.uniform(0.3, 1.5),
             "p2": rng.uniform(0.3, 1.5)}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                v = E.evaluate(e, b)
                vc = E.evaluate(ce, b)
            except DivisionNearZero:
                continue
        if np.isfinite(v):
            assert vc == pytest.approx(v.conjugate(), rel=1e-12, abs=1e-12)


def test_a_real_constant_is_its_own_conjugate():
    assert E.conj_expr(E.const(2.0)) is E.const(2.0)
    assert E.conj_expr(E.const(complex(2.0, -0.0))) is E.const(
        complex(2.0, -0.0))
    assert E.conj_expr(E.const(2j)) is E.const(complex(0.0, -2.0))
    # so a real subtree is its own conjugate, and the conjugate of the
    # chart sqrt(X)*exp(i*theta) reuses X and the phase theta
    fol = load_scenario("annulus-vertical").foliation
    x, theta = fol.polar_parts
    assert E.conj_expr(theta) is theta and E.conj_expr(x) is x
    root, wave = E.conj_expr(fol.phi1).lhs, E.conj_expr(fol.phi1).rhs
    assert root is fol.phi1.lhs
    assert wave is E.exp(E.mul(E.const(complex(0.0, -1.0)), theta))


def test_conj_of_derivative_identity():
    # d_z(conj(e)) == conj(d_zb(e)) pointwise
    rng = np.random.default_rng(5)
    for _ in range(40):
        e = random_expr(rng)
        lhs = E.diff(E.conj_expr(e), "z")
        rhs = E.conj_expr(E.diff(e, "zb"))
        z = complex(rng.uniform(0.3, 1.4), rng.uniform(0.3, 1.4))
        b = {"z": z, "zb": z.conjugate(), "t": rng.uniform(0.4, 1.5),
             "s": 1.0, "p1": 1.0, "p2": 1.0}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                a, c = E.evaluate(lhs, b), E.evaluate(rhs, b)
            except DivisionNearZero:
                continue
        if np.isfinite(a) and np.isfinite(c):
            assert a == pytest.approx(c, rel=1e-10, abs=1e-12)


def test_substitute():
    e = E.parse("z^2 + t")
    sub = E.substitute(e, {"z": E.parse("s + i*p1"), "t": E.parse("p2")})
    v = E.evaluate(sub, {"s": 1.0, "p1": 2.0, "p2": 3.0})
    assert v == pytest.approx((1 + 2j) ** 2 + 3)


def test_transforms_walk_a_100000_term_sum():
    n = 100_000
    term = E.parse("z*re(z)")

    def chain(x):
        # the left-deep sum x + x + ... + x that the parser builds
        out = x
        for _ in range(n - 1):
            out = E.add(out, x)
        return out

    long = chain(term)
    text = E.to_string(long)
    assert text == " + ".join([E.to_string(term)] * n)
    assert E.parse(text) is long
    assert E.free_vars(long) == {"z"}
    assert E.conj_expr(long) is chain(E.conj_expr(term))
    for v in ("z", "zb"):
        assert E.diff(long, v) is chain(E.diff(term, v))
    assert E.diff(long, "t") is E.ZERO
    m = {"z": E.parse("s + i*p1"), "zb": E.parse("s - i*p1")}
    assert E.substitute(long, m) is chain(E.substitute(term, m))

    z = np.array([0.3 + 0.2j, -0.7 + 0.1j, 1.1 - 0.4j])
    b = {"z": z, "zb": np.conj(z)}
    short = E.mul(E.const(float(n)), term)
    assert np.allclose(E.eval_array(long, b), E.eval_array(short, b),
                       rtol=n * np.finfo(float).eps, atol=0.0)
    E._PLANS.clear()    # the long chain's plan is large
    E._STRUCTS.clear()


def test_interning_shares_structure():
    assert E.parse("z*conj(z)") is E.parse("z*zb")
    assert E.parse("z + 0") is E.parse("z")
    assert E.parse("1*z") is E.parse("z")


def test_compile_scalar_matches_evaluate():
    e = E.parse(Q0_TEXT)
    f = E.compile_scalar(e, ("z", "zb", "t"))
    rng = np.random.default_rng(9)
    for _ in range(20):
        z = complex(rng.uniform(0.3, 1.5), rng.uniform(-1, 1))
        t = rng.uniform(-1, 1)
        v = E.evaluate(e, bind(z, t))
        assert abs(f(z, z.conjugate(), t) - v) <= 1e-12 * max(1.0, abs(v))


# ---------------------------------------------------------------------------
# array plans against the tree-walking evaluator they replaced
#
# The functions below are the tree-walking evaluator that eval_array and
# evaluate ran on before plans, verbatim; oracle_array and
# oracle_evaluate are those two entry points over it.

def _coerce_binding(binding: Mapping, checked: bool) -> dict:
    vals = {}
    for name, v in binding.items():
        if name not in VAR_NAMES:
            raise VariableMismatch(f"unknown variable {name!r} in binding")
        if isinstance(v, np.ndarray):
            vals[name] = np.asarray(v, dtype=np.complex128)
        else:
            vals[name] = complex(v)
    if checked:
        for a, b in (("z", "zb"), ("w", "wb")):
            if a in vals and b in vals:
                za, zb_ = vals[a], vals[b]
                bad = abs(zb_ - np.conjugate(za)) > 1e-12 * (1.0 + abs(za))
                if np.any(bad):
                    raise VariableMismatch(
                        f"binding has {b} inconsistent with conj({a})")
    return vals


def _pow_value(base, expo: float, checked: bool):
    n = round(expo)
    if expo == n and abs(n) <= 128:
        if checked and n < 0 and abs(base) < _DIV_FLOOR:
            raise DivisionNearZero(f"0^{n} in power")
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                return base ** int(n)
        except (ZeroDivisionError, OverflowError):
            if checked:
                raise DivisionNearZero(f"overflow in ^{n}") from None
            return complex(np.inf, np.nan)
    if checked and isinstance(base, complex):
        if base.imag == 0.0 and base.real < 0.0:
            warnings.warn("fractional power on the negative real axis",
                          BranchCutWarning, stacklevel=4)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.power(base, expo)


def _eval_dag(e: Expr, vals: dict, checked: bool):
    with np.errstate(all="ignore"):
        return _eval_dag_inner(e, vals, checked)


def _count_uses(e: Expr) -> dict[int, int]:
    """Number of parent references per node, for early release of
    intermediate arrays during evaluation."""
    uses: dict[int, int] = {id(e): 1}
    stack = [e]
    seen = set()
    while stack:
        node = stack.pop()
        nid = id(node)
        if nid in seen:
            continue
        seen.add(nid)
        for c in node._children():
            uses[id(c)] = uses.get(id(c), 0) + 1
            stack.append(c)
    return uses


def _eval_dag_inner(e: Expr, vals: dict, checked: bool):
    uses = _count_uses(e)
    done: dict[int, object] = {}
    memo: dict[int, object] = {}

    def consume(node):
        # fetch a child's value, releasing it once all parents have read it
        nid = id(node)
        v = memo[nid]
        uses[nid] -= 1
        if uses[nid] <= 0 and nid != id(e):
            del memo[nid]
        return v

    stack = [e]
    while stack:
        node = stack[-1]
        nid = id(node)
        if nid in done:
            stack.pop()
            continue
        kids = node._children()
        pending = [c for c in kids if id(c) not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if isinstance(node, Const):
            v = node.value
        elif isinstance(node, Var):
            if node.name not in vals:
                raise VariableMismatch(f"unbound variable {node.name!r}")
            v = vals[node.name]
        elif isinstance(node, Add):
            v = consume(node.lhs) + consume(node.rhs)
        elif isinstance(node, Sub):
            v = consume(node.lhs) - consume(node.rhs)
        elif isinstance(node, Mul):
            v = consume(node.lhs) * consume(node.rhs)
        elif isinstance(node, Div):
            den = consume(node.rhs)
            if checked and abs(den) < _DIV_FLOOR:
                raise DivisionNearZero(f"denominator {den!r}")
            with np.errstate(divide="ignore", invalid="ignore"):
                v = consume(node.lhs) / den
        elif isinstance(node, Neg):
            v = -consume(node.arg)
        elif isinstance(node, PowR):
            v = _pow_value(consume(node.base), node.expo, checked)
        elif isinstance(node, Sqrt):
            v = np.sqrt(consume(node.arg))
        elif isinstance(node, Exp):
            v = np.exp(consume(node.arg))
        elif isinstance(node, Log):
            a = consume(node.arg)
            if checked and isinstance(a, complex):
                if a.imag == 0.0 and a.real < 0.0:
                    warnings.warn("log on the negative real axis",
                                  BranchCutWarning, stacklevel=4)
                if abs(a) < _DIV_FLOOR:
                    raise DivisionNearZero("log of zero")
            with np.errstate(divide="ignore", invalid="ignore"):
                v = np.log(a)
        elif isinstance(node, Sin):
            v = np.sin(consume(node.arg))
        elif isinstance(node, Cos):
            v = np.cos(consume(node.arg))
        elif isinstance(node, Re):
            a = consume(node.arg)
            v = complex(a.real) if isinstance(a, complex) else a.real + 0j
        elif isinstance(node, Im):
            a = consume(node.arg)
            v = complex(a.imag) if isinstance(a, complex) else a.imag + 0j
        elif isinstance(node, Abs2):
            a = consume(node.arg)
            v = a * np.conjugate(a)
        else:  # pragma: no cover
            raise TypeError(f"unhandled node {type(node).__name__}")
        memo[nid] = v
        done[nid] = True
    return memo[id(e)]


def oracle_array(e, binding):
    vals = _coerce_binding(binding, checked=False)
    out = _eval_dag(e, vals, checked=False)
    return np.asarray(out, dtype=np.complex128)


def oracle_evaluate(e, binding):
    vals = _coerce_binding(binding, checked=True)
    return complex(_eval_dag(e, vals, checked=True))


UNBLOCKED = 1 << 62
FRACTIONS = (0.5, 2 / 3, 4 / 3, -1 / 3, -0.5, 1.5, 0.25)
CONSTANTS = (2.0, -0.5, 1j, 0.5 - 1j, -3.0, 0.0 + 2.5j)
# zeros, negative reals with either sign of zero, the imaginary axis
Z_EDGE = (0.0, -1.5, complex(-1.5, -0.0), 1j, -2j, 0.3 + 0.4j, 2.0,
          complex(-0.0, 0.0))
R_EDGE = (0.0, -0.0, -1.0, 2.5, 1e-3, -4.0)


def _op(kind, a, b, draw):
    if kind == "pow_int":
        return E.powr(a, draw(st.sampled_from((-3, -2, -1, 2, 3, 4))))
    if kind == "pow_frac":
        return E.powr(a, draw(st.sampled_from(FRACTIONS)))
    if kind == "conj":
        return E.conj_expr(a)
    if kind == "square":
        return E.mul(a, E.conj_expr(a)) if draw(st.booleans()) \
            else E.mul(E.conj_expr(a), a)
    if kind == "pair":
        return E.add(E.mul(a, b), E.mul(E.conj_expr(a), E.conj_expr(b)))
    binary = {"add": E.add, "sub": E.sub, "mul": E.mul, "div": E.div}
    if kind in binary:
        return binary[kind](a, b)
    unary = {"neg": E.neg, "sqrt": E.sqrt, "exp": E.exp, "log": E.log,
             "sin": E.sin, "cos": E.cos, "re": E.re_part, "im": E.im_part,
             "abs2": E.abs2}
    return unary[kind](a)


OPS = ("add", "sub", "mul", "div", "neg", "pow_int", "pow_frac", "sqrt",
       "exp", "log", "sin", "cos", "re", "im", "abs2", "conj", "square",
       "pair")
# branch-cut ops and conjugates twice as often: they decide the rewrites
WEIGHTED_OPS = OPS + ("pow_frac", "sqrt", "log", "conj", "square", "pair")


@st.composite
def dags(draw):
    """A DAG over z, zb, t, s, p1 with shared subtrees, conjugate pairs
    and products x * conj_expr(x) among every node type."""
    pool = [E.var(v) for v in ("z", "zb", "t", "s", "p1")]
    pool += [E.const(c) for c in draw(st.lists(
        st.sampled_from(CONSTANTS), min_size=1, max_size=2))]
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(WEIGHTED_OPS))
        # favour recent nodes so the DAG grows deep as well as wide
        a = pool[-1 - draw(st.integers(0, min(3, len(pool) - 1)))]
        b = draw(st.sampled_from(pool))
        pool.append(_op(kind, a, b, draw))
    return pool[-1]


@st.composite
def bindings(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    cfloat = st.floats(-3, 3, allow_subnormal=False)
    zs = draw(st.lists(st.one_of(
        st.sampled_from(Z_EDGE),
        st.builds(complex, cfloat, cfloat)), min_size=rows, max_size=rows))
    z = np.array(zs, dtype=np.complex128).reshape(rows, 1)

    def real(shape):
        vals = draw(st.lists(st.one_of(st.sampled_from(R_EDGE), cfloat),
                             min_size=math.prod(shape),
                             max_size=math.prod(shape)))
        return np.array(vals, dtype=float).reshape(shape)

    b = {"z": z, "zb": np.conj(z), "t": real((rows, cols)),
         "s": real((1, cols)), "p1": real((rows, cols))}
    if draw(st.booleans()):
        # a real-named variable bound to complex values
        b["p1"] = b["p1"] + 1j * real((rows, cols))
    return b


def _rebuild(n, kids):
    """The op of node n applied to the given child expressions."""
    if isinstance(n, PowR):
        return E.powr(kids[0], n.expo)
    ctor = {Add: E.add, Sub: E.sub, Mul: E.mul, Div: E.div, Neg: E.neg,
            Sqrt: E.sqrt, Exp: E.exp, Log: E.log, Sin: E.sin, Cos: E.cos,
            Re: E.re_part, Im: E.im_part, Abs2: E.abs2}[type(n)]
    return ctor(*kids)


def _ulp_budget(n, kid_vals):
    """Ulps between a float64 kernel and the complex kernel of the oracle:
    exp(e log x) against pow, repeated products against pow, and a few
    for every other op."""
    if isinstance(n, PowR):
        k = E._int_expo(n.expo)
        if k is None:
            with np.errstate(all="ignore"):
                amp = np.abs(n.expo * np.log(np.abs(kid_vals[0])))
            return 8.0 * (1.0 + np.where(np.isfinite(amp), amp, 0.0))
        return 4.0 + abs(k)
    return 8.0


def bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def check_plans(e, b):
    """Every node of e: row blocks and conjugate reuse change no bit, and
    the node's op agrees with the oracle's op on the same operands."""
    eps = np.finfo(float).eps
    for n in E._topo(e):
        new = E._eval_array(n, b, UNBLOCKED, True)
        assert bitwise_equal(E._eval_array(n, b, 4, True), new), n
        assert bitwise_equal(E._eval_array(n, b, UNBLOCKED, False), new), n
        assert bitwise_equal(E._eval_array(n, b, 4, False), new), n
        if isinstance(n, (Const, Var)):
            continue
        kids = n._children()
        kid_vals = [E._eval_array(c, b, UNBLOCKED, True) for c in kids]
        names = ("z", "w")[:len(kids)]
        old = oracle_array(_rebuild(n, [E.var(v) for v in names]),
                           dict(zip(names, kid_vals)))
        new, old = np.broadcast_arrays(new, old)
        fin = np.isfinite(new)
        assert np.array_equal(fin, np.isfinite(old)), (n, new, old)
        scale = np.maximum(np.abs(new), np.abs(old))
        budget = np.broadcast_to(_ulp_budget(n, kid_vals), new.shape)
        err = np.abs(new[fin] - old[fin])
        assert np.all(err <= budget[fin] * eps * scale[fin] + 1e-300), \
            (n, new, old)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dags(), bindings())
def test_eval_array_plans_against_oracle(e, b):
    check_plans(e, b)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dags(), bindings(), st.integers(0, 29))
def test_evaluate_keeps_checked_semantics(e, b, k):
    point = {name: v.ravel()[k % v.size].item() for name, v in b.items()}

    def run(fn):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            try:
                out = fn(e, point)
            except (DivisionNearZero, VariableMismatch, ZeroDivisionError,
                    OverflowError) as exc:
                out = type(exc)
        return out, [type(w.message) for w in rec]

    new, new_warn = run(E.evaluate)
    old, old_warn = run(oracle_evaluate)
    assert new_warn == old_warn
    if isinstance(old, complex):
        assert isinstance(new, complex)
        assert bitwise_equal(np.array(new), np.array(old)), (e, new, old)
    else:
        assert new is old


def test_eval_array_real_branch_promotes_whole_call():
    t = np.array([4.0, -4.0, 9.0])
    for text in ("sqrt(t)", "t^0.5", "log(t)"):
        e = E.parse(text)
        got = E.eval_array(e, {"t": t})
        assert bitwise_equal(got, oracle_array(e, {"t": t}))
        assert bitwise_equal(E._eval_array(e, {"t": t}, 1, True), got)
    # with no negative element the float64 kernel runs
    got = E.eval_array(E.parse("sqrt(t)"), {"t": np.array([4.0, 9.0])})
    assert got.dtype == np.complex128 and list(got) == [2.0, 3.0]


def test_square_spellings_share_one_kernel():
    phi = E.parse("sqrt(exp(p1)*sin(s)) * exp(i*(p2 + s/2))")
    q = E.substitute(E.parse(Q0_TEXT), {"z": phi, "zb": E.conj_expr(phi),
                                        "t": E.parse("exp(p1)*cos(s)")})
    rng = np.random.default_rng(4)
    b = {"s": rng.uniform(0.1, 3.0, (40, 1)),
         "p1": rng.uniform(0.0, 1.4, (1, 30)),
         "p2": rng.uniform(0.0, 6.2, (1, 30))}
    via_mul = E.eval_array(E.mul(q, E.conj_expr(q)), b)
    via_abs2 = E.eval_array(E.abs2(q), b)
    assert bitwise_equal(via_mul, via_abs2)
    assert not via_abs2.imag.any()
    old = oracle_array(E.abs2(q), b)
    assert np.all(np.abs(via_abs2 - old) <= 64 * np.finfo(float).eps
                  * np.abs(old))


def test_plan_cache_stays_bounded():
    E._PLANS.clear()
    z = np.linspace(0.5, 1.5, 8) + 0.25j
    b = {"z": z, "zb": np.conj(z), "t": np.linspace(-1.0, 1.0, 8)}
    for k in range(16 * E._PLAN_CAP):
        c = 1.0 + k / 4096
        e = E.parse(f"({c!r}*z*conj(z))^(2/3) + {c!r}*t*z")
        E.eval_array(e, b)
        assert len(E._PLANS) <= E._PLAN_CAP
    assert len(E._PLANS) == E._PLAN_CAP


def test_blocked_evaluation_matches_whole_array():
    phi = E.parse("sqrt(exp(p1)*sin(s)) * exp(i*(p2 + s/2))")
    e = E.mul(E.powr(E.abs2(phi), 2 / 3), E.conj_expr(phi))
    s = np.linspace(-0.2, 3.0, 301)[:, None]
    b = {"s": s, "p1": np.linspace(0.0, 1.4, 250)[None, :],
         "p2": np.linspace(0.0, 6.2, 250)[None, :]}
    whole = E._eval_array(e, b, UNBLOCKED, True)
    assert bitwise_equal(E.eval_array(e, b), whole)
    assert bitwise_equal(E._eval_array(e, b, 1000, False), whole)


# Where an op returns a zero part, its sign can differ from the sign in
# the conjugate of the mirror (x + -x is +0 on both sides); principal
# branches on the negative real axis and division then tell them apart.
# Conjugating a NaN part flips its sign bit (the 1/0 case).
CUT_CASES = [
    "sqrt(conj(z + (-3))) * (z + (-3))",
    "log(conj(z*t + (-1))) * (z*t + (-1))",
    "(z + t)^(2/3) + conj((z + t)^(2/3))",
    "sqrt(z + (-3)) * conj(sqrt(z + (-3)))",
    "log(z*t) * conj(log(z*t))",
    "sqrt(t + (-1))*z * conj(sqrt(t + (-1))*z)",
    "exp(i*(t + s/2)) * conj(exp(i*(t + s/2)))",
    "s*z * conj(s*z) + conj(s*z)^(1/3)",
    "1/re(conj(i*t)) + i*t",
    "conj((2 + z)/z)*i + (2 + z)/z",
]


@pytest.mark.parametrize("text", CUT_CASES)
@pytest.mark.parametrize("complex_s", [False, True])
def test_rewrites_exact_at_branch_cuts(text, complex_s):
    z = np.array([1, 2, -1, 0, complex(-0.0, 0.0), 1j, -1j, 0.5 + 0.5j,
                  complex(-2.0, -0.0), 3])
    t = np.array([0.0, -0.0, -1.0, 2.0, 0.5, 1.0, -2.0, 3.0, 1e-300, 4.0])
    s = np.linspace(-1.0, 2.0, 10) + (0.5j if complex_s else 0.0)
    # off the axes but for one zero, so no other element vetoes reuse
    z_off = np.array([0, 1 + 1j, -0.5 + 2j, 2 - 3j])
    for zz, tt in ((z, t), (z[:, None], t[None, :]), (z_off, t[5:9])):
        check_plans(E.parse(text), {"z": zz, "zb": np.conj(zz), "t": tt,
                                    "s": s[:tt.shape[-1]]})


# ---------------------------------------------------------------------------
# weak hash-consing: a node lives as long as something holds it

CHURN_Z = np.linspace(0.5, 1.5, 8) + 0.25j
CHURN_B = {"z": CHURN_Z, "zb": np.conj(CHURN_Z),
           "t": np.linspace(-1.0, 1.0, 8), "s": np.linspace(0.1, 3.0, 8)}


def churn(first, count):
    """Build, transform and evaluate DAGs with fresh constants, keeping
    none of them."""
    for k in range(first, first + count):
        c = 1.0 + k / 4096
        e = E.parse(f"({c!r}*z*conj(z))^(2/3) + {c!r}*t*z - exp(i*{c!r}*t)")
        e = E.add(e, E.conj_expr(E.diff(e, "z")))
        E.eval_array(E.substitute(e, {"t": E.parse(f"{c!r}*s")}), CHURN_B)


def test_the_intern_table_returns_to_its_baseline_after_churn():
    churn(0, 1)     # memoizes what every round shares on long-lived nodes
    E._PLANS.clear()
    gc.collect()
    base = len(E._INTERN)
    churn(1, 300)
    # the plan cache holds the expressions it last evaluated
    assert len(E._INTERN) > base + E._PLAN_CAP
    E._PLANS.clear()
    gc.collect()
    assert len(E._INTERN) == base


def test_structurally_equal_live_expressions_stay_one_object():
    q = E.parse(Q0_TEXT)
    kept = E.conj_expr(E.diff(q, "z"))
    churn(0, 200)
    E._PLANS.clear()
    gc.collect()
    assert E.parse(Q0_TEXT) is q
    for n in E._topo(kept):
        if isinstance(n, Const):
            assert E.const(n.value) is n
        elif isinstance(n, Var):
            assert E.var(n.name) is n
        else:
            assert E._rebuild(n, lambda c: c) is n


def test_evaluation_after_churn_matches_the_oracle():
    # freed nodes' ids are handed to new nodes; a key that outlived its
    # node would hand back a node with other constants
    seen, reused = set(), 0
    z, t = CHURN_B["z"], CHURN_B["t"]
    for k in range(200):
        a, c = 1.0 + k / 7, 0.5 - k / 11
        e = E.parse(f"{a!r}*z*conj(z) + {c!r}*t - sqrt({a!r}*t + 2)")
        got = E.eval_array(e, CHURN_B)
        want = a * (z * np.conj(z)).real + c * t - np.sqrt(a * t + 2 + 0j)
        assert np.allclose(got, want, rtol=1e-14, atol=1e-15), k
        assert np.allclose(got, oracle_array(e, CHURN_B), rtol=1e-14,
                           atol=1e-15), k
        ids = {id(n) for n in E._topo(e)}
        reused += len(ids & seen)
        seen |= ids
        del e
        E._PLANS.clear()
        gc.collect()
    assert reused > 0


def test_a_long_chain_is_freed_once_its_plan_leaves_the_cache():
    E._PLANS.clear()
    gc.collect()
    base = len(E._INTERN)
    term = E.parse("z*re(z)")
    long = term
    for _ in range(99_999):
        long = E.add(long, term)
    freed = weakref.ref(long)
    E.eval_array(long, CHURN_B)
    del long
    gc.collect()
    assert freed() is not None      # the key of its plan holds it
    assert len(E._INTERN) > base + 99_999
    for k in range(E._PLAN_CAP):
        E.eval_array(E.parse(f"{1.0 + k / 1024!r}*z"), CHURN_B)
    gc.collect()
    assert freed() is None
    assert len(E._INTERN) <= base + 3 * E._PLAN_CAP
    E._STRUCTS.clear()      # the long chain's structure is large


def test_variable_atoms_keep_their_conjugate_memo():
    # z * zb evaluates as |z|^2 when z's _conj memo names zb, and a
    # power of that real square runs in float64, with other bits than the
    # complex power; so an atom dropped and rebuilt without its memo
    # would change bits.  A fresh process holds z nowhere else.
    code = (
        "import gc, numpy as np\n"
        "from heismod import expr as E\n"
        "z = np.linspace(0.5, 1.5, 101) + 0.25j\n"
        "b = {'z': z, 'zb': np.conj(z)}\n"
        "def bits():\n"
        "    return E.eval_array(E.parse('(z*zb)^(2/3)'), b).tobytes()\n"
        "atom = E.var('z')\n"
        "E.conj_expr(atom)\n"
        "first = bits()\n"
        "del atom\n"
        "E._PLANS.clear()\n"
        "gc.collect()\n"
        "print(bits() == first)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "True"


# ---------------------------------------------------------------------------
# plans compiled once per structure, constants passed in

def perturbed(e, factor=1.0 + 2.0 ** -20):
    """e with each part of every constant scaled by factor, and the
    ``_conj`` memos that e carries set on the images of its nodes."""
    new = {}
    for n in E._topo(e):
        if isinstance(n, Const):
            v = n.value     # part by part, so a zero part keeps its sign
            new[n] = E.const(complex(v.real * factor, v.imag * factor))
        elif isinstance(n, Var):
            new[n] = n
        else:
            new[n] = _rebuild(n, [new[c] for c in n._children()])
    for n in E._topo(e):
        if n._conj is not None:
            E.conj_expr(new[n])
    return new[e]


def no_expr_reachable(obj) -> bool:
    """Whether no Expr is reachable from obj through containers and
    closures."""
    stack, seen = [obj], set()
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, (type, str, np.ndarray)):
            continue
        seen.add(id(o))
        if isinstance(o, Expr):
            return False
        if isinstance(o, (tuple, list, set, frozenset)):
            stack.extend(o)
        elif isinstance(o, dict):
            stack.extend(o.keys())
            stack.extend(o.values())
        elif callable(o) and hasattr(o, "__closure__"):
            stack.extend(c.cell_contents for c in o.__closure__ or ()
                         if c.cell_contents is not None)
    return True


def test_expressions_that_differ_in_constants_compile_once(monkeypatch):
    E._PLANS.clear()
    E._STRUCTS.clear()
    compiled = []
    compile_plan = E._compile_plan
    monkeypatch.setattr(E, "_compile_plan",
                        lambda s: compiled.append(s) or compile_plan(s))
    outs = []
    for k in range(20):
        c = 1.5 + k / 64    # never 1, which would fold away
        e = E.parse(f"sqrt({c!r}*z*conj(z) + t^2)*exp(i*{c!r}*t)"
                    f" + conj(z)/{c!r} + {c!r}*i*z")
        outs.append((e, E.eval_array(e, CHURN_B)))
    assert len(compiled) == 1
    assert all(no_expr_reachable(p) for p in E._STRUCTS.values())
    for e, got in outs:
        E._PLANS.clear()
        E._STRUCTS.clear()
        assert bitwise_equal(E.eval_array(e, CHURN_B), got)
    assert len(compiled) == 21


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dags(), bindings())
def test_perturbed_constants_share_the_plan_and_keep_its_bits(e, b):
    twin = perturbed(e)
    real = E._array_binding(b)[1]
    for reuse in (True, False):
        assert E._structure(twin, real, reuse, frozenset())[0] \
            == E._structure(e, real, reuse, frozenset())[0]
    for block, reuse in ((UNBLOCKED, True), (4, True), (UNBLOCKED, False)):
        E._eval_array(e, b, block, reuse)
        shared = E._eval_array(twin, b, block, reuse)
        assert E._plan(twin, real, reuse, frozenset())[0] \
            is E._plan(e, real, reuse, frozenset())[0]
        E._PLANS.clear()
        E._STRUCTS.clear()
        assert bitwise_equal(E._eval_array(twin, b, block, reuse), shared)


def test_a_promotion_stays_with_its_expression():
    b = {"t": np.linspace(0.5, 2.0, 101)}
    neg, pos = E.parse("(-1.5*t)^(2/3) + t"), E.parse("(1.5*t)^(2/3) + t")
    vals, real = E._array_binding(b)
    assert E._structure(neg, real, True, frozenset())[0] \
        == E._structure(pos, real, True, frozenset())[0]
    power = {E._topo(pos).index(pos.lhs)}
    assert power == {E._topo(neg).index(neg.lhs)}
    E._PLANS.clear()
    E._STRUCTS.clear()
    alone = E.eval_array(pos, b)
    E._PLANS.clear()
    E._STRUCTS.clear()
    E.eval_array(neg, b)
    promoted = {k[3] for k in E._PLANS if k[0] is neg}
    assert promoted == {frozenset(), frozenset(power)}, promoted
    assert bitwise_equal(E.eval_array(pos, b), alone)
    assert {k[3] for k in E._PLANS if k[0] is pos} == {frozenset()}
    # the promoted plan would give other bits
    plan, consts = E._plan(pos, real, True, frozenset(power))
    leaked = np.asarray(E._run(plan, vals, consts), dtype=np.complex128)
    assert not bitwise_equal(leaked, alone)


def test_a_promotion_in_a_conjugates_own_plan_maps_to_its_node(
        monkeypatch):
    # m = zb*(sqrt(zb)*sqrt(z)) is computed; its conjugate
    # c = z*(sqrt(z)*sqrt(zb)) falls back to its own plan, as z sits on
    # the cut, and there its square sqrt(z)*sqrt(zb) must be promoted:
    # that square's place in c's plan is the place in e of m's square
    x = E.sqrt(E.var("z"))
    m = E.mul(E.var("z"), E.mul(x, E.conj_expr(x)))
    e = E.add(m, E.conj_expr(m))
    order = E._topo(e)
    c_square = order.index(E.mul(x, E.conj_expr(x)))
    m_square = order.index(E.mul(E.conj_expr(x), x))
    z = np.array([-1.0, 1 + 1j, 2 - 0.5j, -3 + 0j])
    b = {"z": z, "zb": np.conj(z)}
    plans, plan = [], E._plan
    monkeypatch.setattr(E, "_plan", lambda *a: plans.append(a[3]) or (
        len(plans) < 10 or pytest.fail("promotion does not converge"))
        and plan(*a))
    E._PLANS.clear()
    E._STRUCTS.clear()
    got = E.eval_array(e, b)
    assert plans[-1] == {m_square, c_square}
    monkeypatch.undo()
    assert bitwise_equal(got, E._eval_array(e, b, UNBLOCKED, False))
    check_plans(e, b)


# ---------------------------------------------------------------------------
# one plan for a tuple of roots

# the built-in charts whose q o Phi takes a conjugate of a node of
# d_s Phi1 from it: exp(-i*theta) of exp(i*theta)
CROSS_CONJUGATE = {"annulus-horizontal", "annulus-vertical",
                   "triple-kernel-residuals"}


def _conjugate_steps(plan) -> int:
    return sum(getattr(fn, "__name__", "") == "conjugate"
               for fn, *_ in plan.steps)


@pytest.mark.parametrize("name", list_scenarios())
def test_a_tuple_of_roots_keeps_each_roots_bits(name, monkeypatch):
    scn = load_scenario(name)
    fol = scn.foliation
    chart = (fol.d_s1, fol.compose(scn.q.coeff), fol.jac_a_expr)
    # negative for s > 1.2 only: on most charts a block after the first
    # promotes the cube root to complex
    cube = E.mul(chart[1], E.parse("(1.2 - s)^(1/3)"))
    roots = chart + (cube, fol.phi1)
    ps = modulus._interior_pairs(fol, 8)
    width = ps[0].size
    (s0, s1) = fol.s_range
    x = np.linspace(s0, s1, 3 * E._BLOCK // width + 52)[1:-1]
    b = column_binding(fol, x, ps)
    alone = [E.eval_array(r, b) for r in roots]

    # the union's plan takes a conjugate that no root's own plan holds
    real = E._array_binding(b)[1]
    union = _conjugate_steps(E._plan(chart, real, True, frozenset())[0])
    apart = sum(_conjugate_steps(E._plan(r, real, True, frozenset())[0])
                for r in chart)
    assert (union > apart) == (name in CROSS_CONJUGATE)

    # one call over several of eval_array's own blocks
    together = E.eval_array(roots, b)
    assert type(together) is tuple and len(together) == len(roots)
    assert all(bitwise_equal(t, a) for t, a in zip(together, alone))

    # row blocks driven as the leaf stage drives them
    full = (x.size, width)
    outs = [np.empty(full, dtype=np.complex128) for _ in roots]
    blocks = []

    def run(r):
        blocks.append(r)
        got = E.eval_array(roots, column_binding(fol, x[r], ps))
        for out, v in zip(outs, got):
            out[r] = v
    E.row_blocks(x.size, width, run)
    step = E._BLOCK // width
    assert len(set(map(repr, blocks))) >= 3
    later = x[step - 1] < 1.2 < x[-1]
    assert blocks.count(blocks[0]) == (2 if later else 1)
    assert all(bitwise_equal(o, np.broadcast_to(a, full))
               for o, a in zip(outs, alone))
    if name == "annulus-vertical":
        assert later
    # the q-length element, which reduces each row block of its roots
    speed = np.sqrt(np.abs(alone[1])) * np.abs(alone[0])
    assert bitwise_equal(leaf_speed_fn(scn.q, fol)(b),
                         np.broadcast_to(speed, full))


def test_plan_caches_stay_bounded_over_fresh_root_tuples():
    E._PLANS.clear()
    E._STRUCTS.clear()
    for k in range(300):
        c = 1.0 + k / 4096
        # a fresh structure as well as fresh constants every round
        roots = (E.parse(f"{c!r}*z*conj(z) + t^{k + 2}"),
                 E.parse(f"exp(i*{c!r}*t) + z"), E.parse(f"{c!r}*zb"))
        got = E.eval_array(roots, CHURN_B)
        assert len(got) == 3
        assert len(E._PLANS) <= E._PLAN_CAP
        assert len(E._STRUCTS) <= E._PLAN_CAP
    assert len(E._PLANS) == len(E._STRUCTS) == E._PLAN_CAP
    E._STRUCTS.clear()
