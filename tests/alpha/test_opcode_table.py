"""The opcode table: each row's expression template (what the engine
compiles) agrees with its reference function (what the machine runs).

The engine formats a template with register locals (``r1``, ``r2``) or,
for the literal operand form, with the literal's decimal text, so both
forms are checked on the words where 64-bit wrap, sign and shift-count
masking change the answer.
"""

import pytest

from repro.alpha.isa import BRANCHES, OPERATES, WORD_MASK

#: Boundary words: zero, one, the signed extremes, all ones.
WORDS = (0, 1, (1 << 63) - 1, 1 << 63, WORD_MASK)
#: Shift counts on both sides of the 6-bit mask (and the byte index mask).
SHIFTS = (0, 7, 63, 64)
#: Every literal the boundary cases need; Alpha literals are 0..255.
LITERALS = SHIFTS + (1, 255)


def _evaluate(expression: str, **values: int):
    return eval(compile(expression, "<template>", "eval"), {}, values)


@pytest.mark.parametrize("name", list(OPERATES))
def test_operate_template_matches_function_register_form(name):
    row = OPERATES[name]
    expression = row.template.format(a="r1", b="r2")
    for a in WORDS:
        for b in WORDS + SHIFTS:
            assert _evaluate(expression, r1=a, r2=b) == row.apply(a, b), \
                (name, a, b)


@pytest.mark.parametrize("name", list(OPERATES))
def test_operate_template_matches_function_literal_form(name):
    row = OPERATES[name]
    for literal in LITERALS:
        expression = row.template.format(a="r1", b=str(literal))
        for a in WORDS:
            assert _evaluate(expression, r1=a) == row.apply(a, literal), \
                (name, a, literal)


@pytest.mark.parametrize("name", list(OPERATES))
def test_operate_results_are_words(name):
    row = OPERATES[name]
    for a in WORDS:
        for b in WORDS + SHIFTS:
            assert 0 <= row.apply(a, b) <= WORD_MASK, (name, a, b)


@pytest.mark.parametrize("name", list(BRANCHES))
def test_branch_template_matches_predicate(name):
    row = BRANCHES[name]
    expression = row.template.format(s="r1")
    for value in WORDS + SHIFTS:
        assert bool(_evaluate(expression, r1=value)) == row.taken(value), \
            (name, value)
