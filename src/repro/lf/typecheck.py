"""The LF type checker — the consumer's trusted proof validator.

Standard LF checking specialized to inference: every term's type (or kind)
is synthesized, applications substitute into Pi codomains, and definitional
equality is beta conversion.  The paper stresses that "typechecking is
decidable and is described by a few simple rules ... so simple that any
programmers who do not trust the publicly available implementation can
implement it easily themselves"; :class:`_Checker` is the whole algorithm.

Performance notes (they do not affect what is accepted):

* proof terms arrive from the wire as DAGs — identical subterms are the
  same Python object — so inference and normalization are memoized by
  object identity plus context identity;
* contexts are cons-lists, so extending a context preserves the identity
  of the shared tail;
* an application spine ``c a1 ... an`` is typed at once: walking the
  head's Pi binders collects the arguments in an environment, each
  domain is instantiated with one simultaneous substitution, and the
  result type once at the end (``whnf`` runs only where the remaining
  type is not syntactically a Pi);
* argument shifts go through one memo per checker, keyed (node, amount,
  cutoff); each entry holds its key node, so no id is reused while the
  checker lives, and nothing is kept at module level (validation runs on
  loader worker threads).

One extension (documented in :mod:`repro.lf.signature`): signature
constants may carry a *side condition*, a decidable predicate on the
first ``side_arity`` arguments, checked once a spine has that many.
This implements the paper's "predicate calculus extended with
two's-complement integer arithmetic" — the logical skeleton is pure LF,
the arithmetic literals are checked computationally.
"""

from __future__ import annotations

from repro.errors import LfError
from repro.lf.signature import Signature
from repro.lf.syntax import (
    KIND,
    LfApp,
    LfConst,
    LfInt,
    LfLam,
    LfPi,
    LfTerm,
    LfVar,
    TYPE,
    instantiate,
    normalize,
    shift,
    spine,
    whnf,
)

#: Context as a cons-list: None or (type, parent).  Sharing the tail keeps
#: context identity stable for memoization.
Ctx = tuple | None


def _free_indices(term: LfTerm, cache: dict) -> frozenset:
    """Free de Bruijn indices of ``term`` (DAG-cached by identity)."""
    if isinstance(term, LfVar):
        return frozenset((term.index,))
    if isinstance(term, (LfConst, LfInt)):
        return frozenset()
    cached = cache.get(id(term))
    if cached is not None:
        return cached[1]
    if isinstance(term, LfApp):
        result = (_free_indices(term.fn, cache)
                  | _free_indices(term.arg, cache))
    elif isinstance(term, LfLam):
        result = (_free_indices(term.ty, cache)
                  | frozenset(i - 1
                              for i in _free_indices(term.body, cache)
                              if i > 0))
    elif isinstance(term, LfPi):
        result = (_free_indices(term.dom, cache)
                  | frozenset(i - 1
                              for i in _free_indices(term.cod, cache)
                              if i > 0))
    else:
        raise LfError(f"not an LF term: {term!r}")
    cache[id(term)] = (term, result)
    return result



class _Checker:
    def __init__(self, signature: Signature, max_depth: int) -> None:
        self.signature = signature
        self.max_depth = max_depth
        # Memo tables hold strong references to their keys, so ids stay
        # valid for the checker's lifetime.
        self._infer_memo: dict[tuple, tuple] = {}
        self._norm_memo: dict[int, tuple] = {}
        self._free_memo: dict[int, tuple] = {}
        self._shifted: dict[tuple, tuple] = {}

    def normalized(self, term: LfTerm) -> LfTerm:
        # The memo is shared across calls (normalize stores
        # (original, normal-form) pairs keyed by node identity), so
        # repeated comparisons over the proof DAG stay linear.
        return normalize(term, self._norm_memo)

    def equal(self, a: LfTerm, b: LfTerm) -> bool:
        if a == b:
            return True
        return self.normalized(a) == self.normalized(b)

    def _lookup(self, ctx: Ctx, index: int) -> LfTerm:
        walked = 0
        while ctx is not None:
            ty, parent = ctx
            if walked == index:
                return shift(ty, index + 1, 0, self._shifted)
            walked += 1
            ctx = parent
        raise LfError(f"unbound de Bruijn index {index}")

    def infer(self, term: LfTerm, ctx: Ctx, depth: int) -> LfTerm:
        if depth > self.max_depth:
            raise LfError("type checking exceeded maximum depth")
        # The inferred type depends only on the context entries the term's
        # free variables resolve to — keying on those (instead of the
        # whole context chain) lets join-point subterms shared across
        # branch arms type-check once instead of once per path.
        key = (id(term), self._ctx_fingerprint(term, ctx))
        memo = self._infer_memo.get(key)
        if memo is not None:
            return memo[2]
        result = self._infer(term, ctx, depth)
        self._infer_memo[key] = (term, ctx, result)
        return result

    def _ctx_fingerprint(self, term: LfTerm, ctx: Ctx) -> tuple:
        indices = _free_indices(term, self._free_memo)
        if not indices:
            return ()
        fingerprint = []
        position = 0
        node = ctx
        for index in sorted(indices):
            while node is not None and position < index:
                node = node[1]
                position += 1
            if node is None:
                # Unbound index: let _infer raise the proper error; an
                # impossible fingerprint avoids false cache hits.
                fingerprint.append((index, -1))
            else:
                fingerprint.append((index, id(node[0])))
        return tuple(fingerprint)

    def _infer(self, term: LfTerm, ctx: Ctx, depth: int) -> LfTerm:
        if isinstance(term, LfConst):
            if term == TYPE:
                return KIND
            entry = self.signature.entries.get(term.name)
            if entry is None:
                raise LfError(f"undeclared constant {term.name!r}")
            return entry.ty
        if isinstance(term, LfVar):
            return self._lookup(ctx, term.index)
        if isinstance(term, LfInt):
            return LfConst("tm")
        if isinstance(term, LfPi):
            dom_sort = whnf(self.infer(term.dom, ctx, depth + 1))
            if dom_sort != TYPE:
                raise LfError("Pi domain is not a type")
            cod_sort = whnf(self.infer(term.cod, (term.dom, ctx),
                                       depth + 1))
            if cod_sort not in (TYPE, KIND):
                raise LfError("Pi codomain is neither a type nor a kind")
            return cod_sort
        if isinstance(term, LfLam):
            dom_sort = whnf(self.infer(term.ty, ctx, depth + 1))
            if dom_sort != TYPE:
                raise LfError("lambda annotation is not a type")
            body_ty = self.infer(term.body, (term.ty, ctx), depth + 1)
            return LfPi(term.ty, body_ty, term.hint)
        if isinstance(term, LfApp):
            head, args = spine(term)
            ty = self.infer(head, ctx, depth + 1)
            entry = self.signature.entries.get(head.name) \
                if isinstance(head, LfConst) else None
            side_arity = entry.side_arity \
                if entry is not None and entry.side_condition else 0
            env: list[LfTerm] = []
            for position, arg in enumerate(args, 1):
                if not isinstance(ty, LfPi):
                    ty, env = whnf(instantiate(ty, env, self._shifted)), []
                    if not isinstance(ty, LfPi):
                        raise LfError("application of a non-function")
                arg_ty = self.infer(arg, ctx, depth + 1)
                dom = instantiate(ty.dom, env, self._shifted)
                if not self.equal(arg_ty, dom):
                    raise LfError("argument type mismatch")
                env.append(arg)
                ty = ty.cod
                if position == side_arity and \
                        not entry.side_condition(args[:side_arity]):
                    raise LfError(
                        f"side condition of {head.name!r} failed — the "
                        f"proof instantiates an arithmetic schema unsoundly")
            return instantiate(ty, env, self._shifted)
        raise LfError(f"not an LF term: {term!r}")


def infer_type(term: LfTerm, signature: Signature,
               context: list[LfTerm] | None = None,
               max_depth: int = 10_000) -> LfTerm:
    """Synthesize the type (or kind) of ``term``.

    ``context`` lists binder types innermost-first.  Raises
    :class:`LfError` if the term is ill-typed or a side condition fails.
    """
    ctx: Ctx = None
    for ty in reversed(context or []):  # push outermost first
        ctx = (ty, ctx)
    return _Checker(signature, max_depth).infer(term, ctx, 0)


def check_proof_term(proof_term: LfTerm, expected_type: LfTerm,
                     signature: Signature,
                     max_depth: int = 10_000) -> None:
    """Validate a proof: ``proof_term`` must have exactly ``expected_type``
    (up to beta).  This is the paper's whole validation step — the expected
    type is ``pf (encoding of the consumer-computed safety predicate)``.
    """
    checker = _Checker(signature, max_depth)
    actual = checker.infer(proof_term, None, 0)
    if not checker.equal(actual, expected_type):
        raise LfError(
            "proof term does not prove the safety predicate: its type "
            "differs from pf(SP)")
