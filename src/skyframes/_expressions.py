"""Chart expressions: the grammar, checked constants, exact folded partials, fused code."""

import ast
import math
import operator
import warnings

import numpy as np

_EXPR_NAMES = ("t", "x", "y", "z")

#: Globals of every compiled expression.  The user grammar has no calls;
#: only derivatives of variable exponents use the private logarithm.
_EVAL_GLOBALS = {"__builtins__": {}, "_log": np.log}


def _power(a, b):
    """a ** b; an integer power past the float range is refused before it
    is computed (10**10**10 would take minutes and gigabytes)."""
    if isinstance(a, int) and isinstance(b, int) and b > 0 and abs(a) > 1:
        if b * (abs(a).bit_length() - 1) > 1024:
            raise OverflowError("integer power past the float range")
    return a**b


#: The Python operation of each operator of the grammar, and the grammar's node types.
_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: _power, ast.USub: operator.neg,
    ast.UAdd: operator.pos,
}
_ALLOWED_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Load, *_OPS)


def _value(node):
    """The value of a tree as its compiled code computes it (Python int and
    float arithmetic), or None if it names a variable.  Every part without
    names is computed once, and one with no real float value (0/0, 0**-9,
    (-1)**0.5, an integer past the float range such as 10**400) raises
    ArithmeticError naming the part; inf and NaN pass."""
    if isinstance(node, ast.Name):
        return None
    args = ()
    if not isinstance(node, ast.Constant):
        parts = (node.operand,) if isinstance(node, ast.UnaryOp) else (node.left, node.right)
        args = [_value(part) for part in parts]
        if None in args:
            return None
    try:
        value = node.value if isinstance(node, ast.Constant) else _OPS[type(node.op)](*args)
        float(value)  # TypeError if complex, OverflowError past the float range
    except (ArithmeticError, TypeError):
        raise ArithmeticError(ast.unparse(node)) from None
    return value


def _parse_expression(src: str, names=_EXPR_NAMES):
    """The AST body of an arithmetic expression of the chart variables
    names, a leading part of t, x, y, z.

    Grammar: numbers, the names, +, -, *, /, ** and unary minus.  Every
    part without names must have a real float value (`_value`); the tree
    keeps its own constants.
    """
    if not isinstance(src, str):
        raise ValueError(f"metric expression {src!r} is not a string")
    try:
        with warnings.catch_warnings():  # the parser warns of a string's invalid escape
            warnings.simplefilter("ignore")
            tree = ast.parse(src, mode="eval")
        for node in ast.walk(tree):
            if not isinstance(node, _ALLOWED_NODES):
                raise ValueError(f"disallowed syntax in metric expression: {src!r}")
            if isinstance(node, ast.Name) and node.id not in names:
                known = ", ".join(names)
                raise ValueError(f"unknown name {node.id!r} in {src!r}, an expression of {known}")
            if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
                raise ValueError("only numeric constants are allowed")
        _value(tree.body)
    except SyntaxError as exc:  # IndentationError too
        raise ValueError(f"metric expression {src!r} does not parse: {exc.msg}") from exc
    except (RecursionError, MemoryError) as exc:  # the stack limits of the parser or `_value`
        raise ValueError(f"metric expression {src!r} nests too deeply to parse") from exc
    except ArithmeticError as exc:  # a part named by `_value`
        message = f"metric expression {src!r} has a part {exc.args[0]!r} with no real float value"
        raise ValueError(message) from exc
    return tree.body


# Symbolic derivatives over the same grammar.  The builders fold the
# constants 0 and 1 and any operation on two constants.


def _num(value):
    return ast.Constant(value=value)


def _is(node, value):
    return isinstance(node, ast.Constant) and node.value == value


def _constant(node):
    """The value of a tree without names, or None if it has a name."""
    if any(isinstance(n, ast.Name) for n in ast.walk(node)):
        return None
    try:
        value = float(_value(node))
    except ArithmeticError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"metric expression {ast.unparse(node)!r} has no finite value")
    return value


def _binop(a, op, b):
    node = ast.BinOp(left=a, op=op, right=b)
    if isinstance(a, ast.Constant) and isinstance(b, ast.Constant):
        return _num(_constant(node))
    return node


def _neg(a):
    if isinstance(a, ast.Constant):
        return _num(-a.value)
    return ast.UnaryOp(op=ast.USub(), operand=a)


def _add(a, b):
    if _is(a, 0):
        return b
    return a if _is(b, 0) else _binop(a, ast.Add(), b)


def _sub(a, b):
    if _is(a, 0):
        return _neg(b)
    return a if _is(b, 0) else _binop(a, ast.Sub(), b)


def _mul(a, b):
    if _is(a, 0) or _is(b, 0):
        return _num(0)
    if _is(a, 1):
        return b
    return a if _is(b, 1) else _binop(a, ast.Mult(), b)


def _div(a, b):
    if _is(a, 0):
        return _num(0)
    return a if _is(b, 1) else _binop(a, ast.Div(), b)


def _pow(a, b):
    if _is(b, 0):
        return _num(1)
    return a if _is(b, 1) else _binop(a, ast.Pow(), b)


def _log(a):
    return ast.Call(func=ast.Name(id="_log", ctx=ast.Load()), args=[a], keywords=[])


def _diff(node, name):
    """d node / d name for a parsed expression body."""
    if isinstance(node, ast.Constant):
        return _num(0)
    if isinstance(node, ast.Name):
        return _num(1 if node.id == name else 0)
    if isinstance(node, ast.UnaryOp):
        d = _diff(node.operand, name)
        return _neg(d) if isinstance(node.op, ast.USub) else d
    u, v = node.left, node.right
    du, dv = _diff(u, name), _diff(v, name)
    if isinstance(node.op, ast.Add):
        return _add(du, dv)
    if isinstance(node.op, ast.Sub):
        return _sub(du, dv)
    if isinstance(node.op, ast.Mult):
        return _add(_mul(du, v), _mul(u, dv))
    if isinstance(node.op, ast.Div):
        return _sub(_div(du, v), _div(_mul(u, dv), _mul(v, v)))
    if _is(dv, 0):  # c * u**(c - 1) * u', also for exponents free of `name`
        c = _constant(v)
        c = v if c is None else _num(c)
        return _mul(_mul(c, _pow(u, _sub(c, _num(1)))), du)
    # u**v * (v' log(u) + v u' / u)
    return _mul(_pow(u, v), _add(_mul(dv, _log(u)), _div(_mul(v, du), u)))


class _FusedExpressions:
    """Expression bodies evaluated by one code object, one slot per body.

    Bodies without names are folded to constants when compiled, and a body
    that repeats an earlier one is computed once.
    """

    def __init__(self, bodies):
        self.slots = len(bodies)
        self.constants, self.computed, distinct = [], [], {}
        for slot, body in enumerate(bodies):
            value = _constant(body)
            if value is not None:
                if value != 0.0:  # the output starts from zeros
                    self.constants.append((slot, value))
                continue
            index = distinct.setdefault(ast.dump(body), (len(distinct), body))[0]
            self.computed.append((slot, index))
        elts = [body for _, body in distinct.values()]
        tree = ast.Expression(body=ast.Tuple(elts=elts, ctx=ast.Load()))
        self.code = compile(ast.fix_missing_locations(tree), "<metric-expression>", "eval")

    def __call__(self, rows):
        """Every body's value at the chart points whose coordinates are the
        rows t, x, y, z (4, ...), or the first k rows for bodies of the
        first k variables, with the slots along the first axis (slots, ...)."""
        out = np.zeros((self.slots,) + np.shape(rows[0]))
        values = eval(self.code, _EVAL_GLOBALS, dict(zip(_EXPR_NAMES, rows)))  # noqa: S307
        for slot, value in self.constants:
            out[slot] = value
        for slot, index in self.computed:
            out[slot] = values[index]
        return out


class _ExpressionMetric:
    """Compiled coefficient expressions of a diagonal metric: `values`
    gives the 4 coefficients, `jet` the coefficients followed by their
    16 partials d g_aa / d x^b in (b, a) order.  On an isotropic chart of
    t alone, ds^2 = g00(t) dt^2 + g11(t) dx.dx (the coefficients name t
    only, so every x, y and z partial folds to 0, and the three spatial
    ones parse to the same tree), `t_jet` gives (g00, g11, d g11 / dt)
    from the row t; on any other chart it is None."""

    def __init__(self, sources):
        if len(sources) != 4:
            raise ValueError("custom metric needs four coefficient expressions")
        coeffs = [_parse_expression(src) for src in sources]
        try:
            partials = [_diff(c, name) for name in _EXPR_NAMES for c in coeffs]
            self.values = _FusedExpressions(coeffs)
            self.jet = _FusedExpressions(coeffs + partials)
        except RecursionError as exc:
            raise ValueError(f"metric expressions {list(sources)!r} nest too deeply") from exc
        names = {n.id for c in coeffs for n in ast.walk(c) if isinstance(n, ast.Name)}
        isotropic = len({ast.dump(c) for c in coeffs[1:]}) == 1
        t_only = names <= {"t"} and isotropic
        self.t_jet = _FusedExpressions([coeffs[0], coeffs[1], partials[1]]) if t_only else None
