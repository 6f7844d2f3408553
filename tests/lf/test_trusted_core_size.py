"""The consumer's trusted LF core is counted and may not grow.

The de Bruijn criterion: the checker a consumer must trust should stay
small enough to read.  The core is the term syntax, the type checker and
the signature with its side conditions; a change that makes it faster
or richer has to pay for its lines elsewhere in these three files.
"""

from pathlib import Path

import repro.lf

TRUSTED_FILES = ("syntax.py", "typecheck.py", "signature.py")
LINE_LIMIT = 1_048


def test_trusted_core_does_not_grow():
    package = Path(repro.lf.__file__).parent
    lines = sum(len((package / name).read_text().splitlines())
                for name in TRUSTED_FILES)
    assert lines <= LINE_LIMIT, (
        f"trusted LF core is {lines} lines, over its {LINE_LIMIT}-line "
        f"budget")
