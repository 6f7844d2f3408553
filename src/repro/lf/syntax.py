"""LF term syntax: a dependently typed lambda calculus with de Bruijn
indices, plus primitive integer literals.

The object language is standard LF (objects, families, kinds collapsed into
one term type, sorted by the checker), with one documented extension: the
constructor :class:`LfInt` embeds an arbitrary-precision integer literal of
LF type ``tm``.  Real LF would represent numerals as constructor chains;
implementations used in practice (e.g. Twelf's constraint domains) add a
primitive integer sort exactly like this, and the paper's own rule set is
"first-order predicate calculus extended with two's-complement integer
arithmetic", which is only checkable with some computation on literals.

De Bruijn indices make alpha-equivalence structural; binder ``hint`` names
are carried only for printing and never affect equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.errors import LfError
from repro.logic.eqcache import dag_equal


@dataclass(frozen=True, slots=True)
class LfConst:
    """A constant declared in the signature."""

    name: str


@dataclass(frozen=True, slots=True)
class LfVar:
    """A bound variable (de Bruijn index, innermost binder = 0)."""

    index: int


@dataclass(frozen=True, slots=True)
class LfInt:
    """A primitive integer literal of LF type ``tm``."""

    value: int


@dataclass(frozen=True, slots=True)
class LfApp:
    fn: "LfTerm"
    arg: "LfTerm"
    _hash: int | None = field(default=None, init=False, compare=False,
                              repr=False)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(("app", self.fn, self.arg))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __eq__(self, other) -> bool:
        if not isinstance(other, LfApp):
            return NotImplemented
        return dag_equal(self, other,
                         lambda node: (node.fn, node.arg))



@dataclass(frozen=True, slots=True)
class LfLam:
    """``\\x:ty. body`` — ``hint`` is a display name only."""

    ty: "LfTerm"
    body: "LfTerm"
    hint: str = field(default="x", compare=False)
    _hash: int | None = field(default=None, init=False, compare=False,
                              repr=False)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(("lam", self.ty, self.body))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __eq__(self, other) -> bool:
        if not isinstance(other, LfLam):
            return NotImplemented
        return dag_equal(self, other,
                         lambda node: (node.ty, node.body))



@dataclass(frozen=True, slots=True)
class LfPi:
    """``{x:dom} cod`` — dependent function type; ``hint`` display-only."""

    dom: "LfTerm"
    cod: "LfTerm"
    hint: str = field(default="x", compare=False)
    _hash: int | None = field(default=None, init=False, compare=False,
                              repr=False)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(("pi", self.dom, self.cod))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __eq__(self, other) -> bool:
        if not isinstance(other, LfPi):
            return NotImplemented
        return dag_equal(self, other,
                         lambda node: (node.dom, node.cod))



LfTerm = Union[LfConst, LfVar, LfInt, LfApp, LfLam, LfPi]

#: The sort of types and the sort of kinds.
TYPE = LfConst("%type")
KIND = LfConst("%kind")


def lf_app(fn: LfTerm, *args: LfTerm) -> LfTerm:
    """Left-nested application of ``fn`` to ``args``."""
    result = fn
    for arg in args:
        result = LfApp(result, arg)
    return result


def spine(term: LfTerm) -> tuple[LfTerm, list[LfTerm]]:
    """Decompose nested applications into (head, arguments)."""
    args: list[LfTerm] = []
    while isinstance(term, LfApp):
        args.append(term.arg)
        term = term.fn
    args.reverse()
    return term, args


def _walk(term: LfTerm, depth: int, on_var, memo: dict,
          tag: object) -> LfTerm:
    """Rebuild ``term`` with every variable ``v`` under ``depth`` binders
    replaced by ``on_var(v, depth)``.

    Identity-memoized per (node, ``tag``, depth) and sharing-preserving:
    decoded proof objects are DAGs, and naive structural recursion would
    be exponential in their unshared size.  Memo entries hold their key
    node, so one memo may outlive a call without its ids being reused.
    """
    if isinstance(term, LfVar):
        return on_var(term, depth)
    if isinstance(term, (LfConst, LfInt)):
        return term
    key = (id(term), tag, depth)
    cached = memo.get(key)
    if cached is not None:
        return cached[1]
    if isinstance(term, LfApp):
        fn = _walk(term.fn, depth, on_var, memo, tag)
        arg = _walk(term.arg, depth, on_var, memo, tag)
        result = term if fn is term.fn and arg is term.arg \
            else LfApp(fn, arg)
    elif isinstance(term, LfLam):
        ty = _walk(term.ty, depth, on_var, memo, tag)
        body = _walk(term.body, depth + 1, on_var, memo, tag)
        result = term if ty is term.ty and body is term.body \
            else LfLam(ty, body, term.hint)
    elif isinstance(term, LfPi):
        dom = _walk(term.dom, depth, on_var, memo, tag)
        cod = _walk(term.cod, depth + 1, on_var, memo, tag)
        result = term if dom is term.dom and cod is term.cod \
            else LfPi(dom, cod, term.hint)
    else:
        raise LfError(f"not an LF term: {term!r}")
    memo[key] = (term, result)
    return result


def shift(term: LfTerm, amount: int, cutoff: int = 0,
          _memo: dict | None = None) -> LfTerm:
    """Shift free de Bruijn indices >= cutoff by ``amount`` (memo key
    (node, amount, cutoff); see :func:`_walk`)."""
    if amount == 0:
        return term

    def on_var(var: LfVar, depth: int) -> LfTerm:
        if var.index < depth:
            return var
        if var.index + amount < 0:
            raise LfError("negative de Bruijn index after shift")
        return LfVar(var.index + amount)

    return _walk(term, cutoff, on_var, _memo if _memo is not None else {},
                 amount)


def instantiate(term: LfTerm, args: list[LfTerm],
                shifted: dict | None = None) -> LfTerm:
    """Substitute ``args`` simultaneously for the ``len(args)`` innermost
    free variables of ``term``: ``args[-1]`` for index 0, ``args[0]`` for
    index ``len(args) - 1``; higher indices drop by ``len(args)``.

    One walk of ``term``.  An argument is shifted only where it lands
    under a binder of ``term``; ``shifted`` is the memo of those shifts,
    so a caller may share it across many instantiations.
    """
    count = len(args)
    if count == 0:
        return term
    shift_memo = shifted if shifted is not None else {}

    def on_var(var: LfVar, depth: int) -> LfTerm:
        index = var.index - depth
        if index < 0:
            return var
        if index < count:
            return shift(args[count - 1 - index], depth, 0, shift_memo)
        return LfVar(var.index - count)

    return _walk(term, 0, on_var, {}, None)


def subst(term: LfTerm, replacement: LfTerm) -> LfTerm:
    """Substitute ``replacement`` for variable 0 in ``term``."""
    return instantiate(term, [replacement])


def whnf(term: LfTerm) -> LfTerm:
    """Weak-head beta normalization."""
    while isinstance(term, LfApp):
        fn = whnf(term.fn)
        if isinstance(fn, LfLam):
            term = subst(fn.body, term.arg)
        else:
            if fn is not term.fn:
                term = LfApp(fn, term.arg)
            return term
    return term


def normalize(term: LfTerm, _memo: dict | None = None) -> LfTerm:
    """Full beta normalization (LF is strongly normalizing for well-typed
    terms; ill-typed input is guarded by a step budget).

    A term's normal form depends only on the term itself (de Bruijn
    indices are binder-relative), so memoizing on node identity is sound
    and keeps normalization linear in the *shared* size of proof DAGs.
    """
    budget = [1_000_000]
    memo = _memo if _memo is not None else {}

    def go(t: LfTerm) -> LfTerm:
        if isinstance(t, (LfConst, LfInt, LfVar)):
            return t
        cached = memo.get(id(t))
        if cached is not None:
            return cached[1]
        if budget[0] <= 0:
            raise LfError("normalization budget exhausted")
        budget[0] -= 1
        original = t
        t = whnf(t)
        if isinstance(t, LfApp):
            fn = go(t.fn)
            arg = go(t.arg)
            result: LfTerm = t if fn is t.fn and arg is t.arg \
                else LfApp(fn, arg)
        elif isinstance(t, LfLam):
            ty = go(t.ty)
            body = go(t.body)
            result = t if ty is t.ty and body is t.body \
                else LfLam(ty, body, t.hint)
        elif isinstance(t, LfPi):
            dom = go(t.dom)
            cod = go(t.cod)
            result = t if dom is t.dom and cod is t.cod \
                else LfPi(dom, cod, t.hint)
        else:
            result = t
        memo[id(original)] = (original, result)
        return result

    return go(term)
