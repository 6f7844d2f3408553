"""Spine-at-once LF checking against plain one-argument-at-a-time rules.

The primary checker types an application spine ``c a1 ... an`` in one
pass and instantiates the head's Pi binders with one simultaneous
substitution (:func:`repro.lf.syntax.instantiate`).  These tests pin that
to the textbook rules as the independent :class:`MiniChecker` spells
them: ``instantiate`` against iterated single substitutions, and the
checker's verdicts and types against the mini checker on random spines
over the signature, including lambda and variable heads, over-applied
heads, and a side condition that covers only a prefix of the spine.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import LfError
from repro.lf.minicheck import MiniChecker
from repro.lf.signature import SIGNATURE, SigEntry, Signature
from repro.lf.syntax import (
    LfApp,
    LfConst,
    LfInt,
    LfLam,
    LfPi,
    LfVar,
    instantiate,
    lf_app,
    shift,
)
from repro.lf.typecheck import check_proof_term, infer_type

TM = LfConst("tm")
FORM = LfConst("form")
PF = LfConst("pf")


def _c(name, *args):
    return lf_app(LfConst(name), *args)


def _pf(formula):
    return LfApp(PF, formula)


def _eq(a, b):
    return _c("eq", a, b)


# -- instantiate: one walk == n single substitutions --------------------------

_LEAVES = st.one_of(
    st.builds(LfVar, st.integers(0, 5)),
    st.sampled_from([TM, FORM, LfConst("c")]),
    st.builds(LfInt, st.integers(-3, 3)))

TERMS = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.builds(LfApp, kids, kids),
    st.builds(LfLam, kids, kids),
    st.builds(LfPi, kids, kids),
    kids.map(lambda t: LfApp(t, t))),     # a shared subterm: a DAG
    max_leaves=16)


@given(TERMS, st.lists(TERMS, max_size=4))
def test_instantiate_is_iterated_single_substitution(term, args):
    # Bind ``term``'s free variables 0..n-1 with n Pis (args[0] outermost),
    # then peel them off one at a time as the textbook rule does.
    reference = MiniChecker(SIGNATURE)
    expected = term
    for __ in args:
        expected = LfPi(TM, expected)
    for arg in args:
        expected = reference.subst(expected.cod, arg)
    assert instantiate(term, args) == expected


@given(TERMS, TERMS, st.lists(TERMS, min_size=1, max_size=4))
def test_shared_shift_memo_is_transparent(first, second, args):
    shifted: dict = {}
    assert instantiate(first, args, shifted) == instantiate(first, args)
    assert instantiate(second, args, shifted) == instantiate(second, args)
    assert instantiate(first, args, shifted) == instantiate(first, args)


@given(TERMS, st.integers(0, 3), st.integers(0, 3))
def test_shift_matches_reference(term, amount, cutoff):
    assert shift(term, amount, cutoff) == \
        MiniChecker(SIGNATURE).shift(term, amount, cutoff)


# -- the checker on random spines ---------------------------------------------

def _guard_zero(args):
    return args[0] == LfInt(0)


#: The published signature plus one schema whose side condition covers a
#: strict prefix of its spine (every published schema's covers it all).
SIG = Signature({**SIGNATURE.entries, "guarded": SigEntry(
    "guarded",
    LfPi(TM, LfPi(_pf(_eq(LfVar(0), LfVar(0))),
                  _pf(_eq(LfVar(1), LfVar(1))))),
    _guard_zero, 1)})

A = _c("lt", LfInt(3), LfInt(4))
B = _eq(LfInt(5), LfInt(5))
EQ_SELF = LfLam(TM, _eq(LfVar(0), LfVar(0)))

#: Closed terms of every sort the rules ask for, true and false facts,
#: and proofs that let type-directed spines get all the way through.
POOL = [
    LfInt(0), LfInt(3), LfInt(7), _c("add64", LfInt(3), LfInt(4)),
    _c("and64", LfInt(7), LfInt(3)), LfConst("r1"),
    LfConst("true"), LfConst("false"), A, B, _c("lt", LfInt(4), LfInt(3)),
    _eq(LfInt(2), LfInt(3)), _c("and", A, B), _c("le", LfInt(3), LfInt(7)),
    _c("imp", LfConst("true"), A),
    EQ_SELF, LfLam(TM, _c("lt", LfVar(0), LfInt(4))),
    LfConst("truei"), _c("arith_eval", A), _c("arith_eval", B),
    _c("eqrefl", LfInt(3)), _c("eqrefl", LfInt(0)),
    _c("andi", A, B, _c("arith_eval", A), _c("arith_eval", B)),
    _c("alli", EQ_SELF, LfLam(TM, _c("eqrefl", LfVar(0)))),
    _c("impi", LfConst("true"), A,
       LfLam(_pf(LfConst("true")), _c("arith_eval", A))),
]

#: Hypotheses for variable heads, innermost first (all closed).
CONTEXT = (
    LfPi(_pf(A), _pf(_c("le", LfInt(3), LfInt(7)))),
    LfPi(TM, _pf(_eq(LfVar(0), LfVar(0)))),
)

HEADS = [LfConst(name) for name in sorted(SIG.entries)] + [
    LfVar(0), LfVar(1),
    LfLam(FORM, LfLam(_pf(LfVar(0)), LfVar(0))),
    LfLam(TM, _c("eqrefl", LfVar(0))),
    LfLam(FORM, LfLam(FORM, LfLam(_pf(LfVar(1)), LfLam(
        _pf(LfVar(1)), _c("andi", LfVar(3), LfVar(2), LfVar(1),
                          LfVar(0)))))),
]


def _mini_type(term):
    checker = MiniChecker(SIG)
    try:
        return checker.normalize(checker.infer(term, CONTEXT))
    except LfError:
        return None


POOL_TYPES = [(term, _mini_type(term)) for term in POOL]


def _fitting(term):
    """Pool members of the type ``term``'s next argument must have."""
    ty = _mini_type(term)
    if not isinstance(ty, LfPi):
        return []
    return [candidate for candidate, cand_ty in POOL_TYPES
            if cand_ty == ty.dom]


@st.composite
def spines(draw):
    """A head applied to type-directed arguments, with an occasional
    wrong argument and occasional arguments past the last Pi."""
    term = draw(st.sampled_from(HEADS))
    for __ in range(draw(st.integers(1, 7))):
        fitting = _fitting(term)
        if fitting and draw(st.integers(0, 9)) > 0:
            term = LfApp(term, draw(st.sampled_from(fitting)))
        else:
            term = LfApp(term, draw(st.sampled_from(POOL)))
    return term


def _verdict(infer):
    try:
        return infer()
    except LfError:
        return None


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spines())
def test_checker_agrees_with_minicheck_on_spines(term):
    reference = MiniChecker(SIG)
    expected = _verdict(lambda: reference.infer(term, CONTEXT))
    actual = _verdict(lambda: infer_type(term, SIG, list(CONTEXT)))
    assert (actual is None) == (expected is None)
    if actual is not None:
        assert reference.normalize(actual) == reference.normalize(expected)


def _complete(term, budget=7):
    """A fully applied, well-typed spine extending ``term``, or None."""
    ty = _mini_type(term)
    if ty is not None and not isinstance(ty, LfPi):
        return term
    if budget == 0:
        return None
    for candidate in _fitting(term):
        found = _complete(LfApp(term, candidate), budget - 1)
        if found is not None:
            return found
    return None


@pytest.mark.parametrize("head", [
    LfConst("andi"), LfConst("alle"), LfConst("impe"),
    LfConst("linarith"), LfConst("guarded"), LfConst("eqtrans"),
    LfVar(0), LfVar(1), HEADS[-1], HEADS[-3]], ids=[
        "andi", "alle", "impe", "linarith", "guarded", "eqtrans", "var0",
        "var1", "lambda-andi", "lambda-proof-identity"])
def test_spine_generator_reaches_acceptance(head):
    """The agreement test above is only as strong as its accepted share:
    from each of these heads the generator's type-directed choices can
    reach a fully applied spine both checkers accept."""
    spine_term = _complete(head)
    assert spine_term is not None
    assert infer_type(spine_term, SIG, list(CONTEXT)) is not None


# -- what a broken core would get wrong ---------------------------------------

def test_andi_arguments_in_order():
    """A reversed environment would accept the swapped premises."""
    proof_a, proof_b = _c("arith_eval", A), _c("arith_eval", B)
    goal = _pf(_c("and", A, B))
    check_proof_term(_c("andi", A, B, proof_a, proof_b), goal, SIGNATURE)
    with pytest.raises(LfError):
        check_proof_term(_c("andi", A, B, proof_b, proof_a), goal,
                         SIGNATURE)


def test_side_condition_prefix_checked_on_longer_spines():
    accepted = _c("guarded", LfInt(0), _c("eqrefl", LfInt(0)))
    assert infer_type(accepted, SIG) == _pf(_eq(LfInt(0), LfInt(0)))
    # Fully typed spine of two arguments; the one-argument prefix fails.
    with pytest.raises(LfError, match="side condition"):
        infer_type(_c("guarded", LfInt(3), _c("eqrefl", LfInt(3))), SIG)
    with pytest.raises(LfError):
        MiniChecker(SIG).infer(
            _c("guarded", LfInt(3), _c("eqrefl", LfInt(3))))


def test_over_applied_side_condition_head_rejected():
    facts = _c("linarith", A, _c("le", LfInt(3), LfInt(7)),
               _c("arith_eval", A))
    assert infer_type(facts, SIGNATURE) == \
        _pf(_c("le", LfInt(3), LfInt(7)))
    with pytest.raises(LfError):
        infer_type(LfApp(facts, LfConst("truei")), SIGNATURE)
    false_goal = _c("linarith", A, _c("lt", LfInt(4), LfInt(3)),
                    _c("arith_eval", A), LfConst("truei"))
    with pytest.raises(LfError, match="side condition"):
        infer_type(false_goal, SIGNATURE)
