"""Abstract syntax trees for the generalised-polynomial expression language.

An expression is a function of one integer variable ``n`` built from
rational constants, named real constants (field elements or interval
streams), addition, subtraction, multiplication, nonnegative integer
powers, and the integer-part family ``floor``/``frac``/``nint``/``dist``.

Nodes are immutable and compare structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import PreconditionError
from ..realnum import FieldElement, RefinableReal


class Expr:
    # the compiled program, set by the evaluator on the first evaluation
    __slots__ = ("_program",)


@dataclass(frozen=True, slots=True)
class RationalConst(Expr):
    """A rational constant; an ``int`` is held as its ``Fraction``."""

    value: Fraction

    def __post_init__(self):
        v = self.value
        if type(v) is not Fraction:
            if not isinstance(v, int):
                raise TypeError(f"RationalConst needs a Fraction or an int, not {type(v).__name__}")
            object.__setattr__(self, "value", Fraction(v))


@dataclass(frozen=True, slots=True)
class Const(Expr):
    """Named real constant: a field element or a refinable real."""

    name: str
    value: object  # FieldElement | RefinableReal | Fraction

    def __hash__(self):
        v = self.value
        if isinstance(v, RefinableReal):
            return hash((self.name, id(v)))
        return hash((self.name, v))


@dataclass(frozen=True, slots=True)
class Var(Expr):
    pass


N = Var()


@dataclass(frozen=True, slots=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        if self.exponent < 0:
            raise PreconditionError("powers must have nonnegative integer exponents")


@dataclass(frozen=True, slots=True)
class Floor(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Frac(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Nint(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Dist(Expr):
    arg: Expr


_UNARY = {Floor: "floor", Frac: "frac", Nint: "nint", Dist: "dist"}


def children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, (Add, Sub, Mul)):
        return (e.left, e.right)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Floor, Frac, Nint, Dist)):
        return (e.arg,)
    return ()


def walk(e: Expr):
    """Every node, in preorder (shared subtrees once per occurrence), without recursion."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def walk_distinct(e: Expr):
    """Every distinct node (by identity) once, in the order of its first
    occurrence in :func:`walk`'s preorder: a shared subtree is entered
    once, and its later occurrences hold only nodes already seen."""
    seen: set[int] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(reversed(children(node)))


def depends_on_var(e: Expr) -> bool:
    return any(isinstance(node, Var) for node in walk_distinct(e))


def map_tree(e: Expr, fn):
    """Fold the tree bottom up: ``fn(node, results of its children)``, children first.

    Runs on an explicit stack, so depth is not limited by recursion, and is
    memoised on node identity (never on the recursive ``==``/``hash``): a
    shared subtree is folded once and, when ``fn`` rebuilds nodes, stays
    shared in the result.
    """
    done: dict[int, object] = {}
    stack = [(e, None)]  # (node, its children once expanded)
    while stack:
        node, kids = stack.pop()
        if kids is not None:
            done[id(node)] = fn(node, tuple([done[id(k)] for k in kids]))
        elif id(node) not in done:
            kids = children(node)
            stack.append((node, kids))
            for k in reversed(kids):
                if id(k) not in done:
                    stack.append((k, None))
    return done[id(e)]


def substitute_var(e: Expr, replacement: Expr) -> Expr:
    """Replace every occurrence of the variable by ``replacement``.

    One walk on an explicit stack, memoised on node identity like
    :func:`map_tree`: a node stays on the stack until its children are
    rewritten, a shared subtree is rewritten once and stays shared, and a
    subtree without the variable is kept as it is.
    """
    done: dict[int, Expr] = {}
    stack = [e]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        cls = type(node)
        if cls is Add or cls is Sub or cls is Mul:
            left, right = done.get(id(node.left)), done.get(id(node.right))
            if left is None or right is None:
                stack += [k for k in (node.right, node.left) if id(k) not in done]
                continue
            if left is not node.left or right is not node.right:
                node_out = cls(left, right)
            else:
                node_out = node
        elif cls in _UNARY or cls is Pow:
            arg = node.base if cls is Pow else node.arg
            new = done.get(id(arg))
            if new is None:
                stack.append(arg)
                continue
            if new is arg:
                node_out = node
            else:
                node_out = Pow(new, node.exponent) if cls is Pow else cls(new)
        else:
            node_out = replacement if cls is Var else node
        done[id(node)] = node_out
        stack.pop()
    return done[id(e)]


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _rat_text(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator) if q >= 0 else f"({q.numerator})"
    return f"({q.numerator}/{q.denominator})"


def _collect_lets(e: Expr) -> tuple[dict[str, object], dict[object, str]]:
    """Let-name -> bound value in first-use order, plus the key -> name map."""
    lets: dict[str, object] = {}
    assigned: dict[object, str] = {}

    def name_for(const: Const) -> None:
        v = const.value
        if isinstance(v, RefinableReal):
            if v.name == "theta":
                return  # builtin, no let required
            raise PreconditionError(
                f"constant {const.name!r} is a general computable real and has no "
                "textual form; snapshot it to a rational first"
            )
        if isinstance(v, FieldElement) and v.is_rational():
            return  # prints as a plain rational; no let needed
        key = (const.name, v) if isinstance(v, Fraction) else id(v.field)
        if key in assigned:
            return
        base = (const.name if isinstance(v, Fraction) else v.field.name) or "c"
        name = base
        i = 2
        while name in lets:
            name = f"{base}{i}"
            i += 1
        lets[name] = v if isinstance(v, Fraction) else v.field
        assigned[key] = name

    for node in walk_distinct(e):
        if isinstance(node, Const):
            name_for(node)
    return lets, assigned


def _intpoly_text(coeffs) -> str:
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        elif i == 1:
            body = "x" if mag == 1 else f"{mag}*x"
        else:
            body = f"x^{i}" if mag == 1 else f"{mag}*x^{i}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(terms) if terms else "0"


def to_text(e: Expr) -> str:
    """Render an expression (with let declarations) in the surface syntax."""
    lets, assigned = _collect_lets(e)

    def const_text(node: Const) -> tuple[str, int]:
        """Render a constant exactly as its reparsed expression tree prints."""
        v = node.value
        if isinstance(v, RefinableReal):
            return "theta", _PREC_ATOM
        if isinstance(v, Fraction):
            return assigned[(node.name, v)], _PREC_ATOM
        if v.is_rational():
            return _rat_text(v.as_rational()), _PREC_ATOM
        name = assigned[id(v.field)]
        coords = v.coords
        if all(c == 0 for c in coords[2:]) and coords[0] == 0 and coords[1] == 1:
            return name, _PREC_ATOM
        terms = []
        term_precs = []
        for i, c in enumerate(coords):
            if c == 0:
                continue
            if i == 0:
                terms.append(_rat_text(c))
                term_precs.append(_PREC_ATOM)
            else:
                power = name if i == 1 else f"{name}^{i}"
                power_prec = _PREC_ATOM if i == 1 else _PREC_POW
                if c == 1:
                    terms.append(power)
                    term_precs.append(power_prec)
                else:
                    terms.append(f"{_rat_text(c)} * {power}")
                    term_precs.append(_PREC_MUL)
        if not terms:
            return "0", _PREC_ATOM
        if len(terms) == 1:
            return terms[0], term_precs[0]
        return " + ".join(terms), _PREC_ADD

    def render(node: Expr, kids: tuple) -> tuple[str, int]:
        if isinstance(node, RationalConst):
            return _rat_text(node.value), _PREC_ATOM
        if isinstance(node, Const):
            return const_text(node)
        if isinstance(node, Var):
            return "n", _PREC_ATOM
        if isinstance(node, Add):
            return f"{_at_least(kids[0], _PREC_ADD)} + {_at_least(kids[1], _PREC_MUL)}", _PREC_ADD
        if isinstance(node, Sub):
            return f"{_at_least(kids[0], _PREC_ADD)} - {_at_least(kids[1], _PREC_MUL)}", _PREC_ADD
        if isinstance(node, Mul):
            return f"{_at_least(kids[0], _PREC_MUL)} * {_at_least(kids[1], _PREC_POW)}", _PREC_MUL
        if isinstance(node, Pow):
            return f"{_at_least(kids[0], _PREC_ATOM)}^{node.exponent}", _PREC_POW
        kw = _UNARY.get(type(node))
        if kw is None:
            raise PreconditionError(f"unknown node {node!r}")
        return f"{kw}({kids[0][0]})", _PREC_ATOM

    def _at_least(rendered: tuple[str, int], prec: int) -> str:
        text, p = rendered
        return f"({text})" if p < prec else text

    body = map_tree(e, render)[0]
    decls = []
    for name, bound in lets.items():
        if isinstance(bound, Fraction):
            decls.append(f"let {name} = {bound.numerator}/{bound.denominator};"
                         if bound.denominator != 1 else f"let {name} = {bound.numerator};")
        else:
            lo, hi = bound.isolating_interval
            decls.append(
                f"let {name} = root({_intpoly_text(bound.minpoly)}, "
                f"{lo.numerator}/{lo.denominator}, {hi.numerator}/{hi.denominator});"
            )
    if decls:
        return "\n".join(decls) + "\n" + body
    return body
