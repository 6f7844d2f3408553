"""The Edinburgh Logical Framework (LF) layer — proof representation and
validation by type checking (paper §2.3).

The paper represents predicates and proofs in LF so that "the validity of a
proof is implied by the well-typedness of the proof representation[;] proof
validation amounts to typechecking".  This package implements that stack:

* :mod:`repro.lf.syntax` — the dependently typed lambda calculus (de Bruijn
  terms, substitution, beta normalization),
* :mod:`repro.lf.typecheck` — the type checker, the consumer's trusted core,
* :mod:`repro.lf.signature` — first-order logic plus the rule set Delta as
  an LF signature; arithmetic schemas carry *computational side conditions*
  (the analogue of the paper's "predicate calculus extended with
  two's-complement integer arithmetic"),
* :mod:`repro.lf.encode` — encoding of formulas, terms and natural-deduction
  proofs into LF objects (and the decoding used by side conditions),
* :mod:`repro.lf.binary` — the binary wire format with its symbol table
  (the PCC binary's relocation + proof sections, Figure 7).
"""

from repro.lf.syntax import (
    LfApp,
    LfConst,
    LfInt,
    LfLam,
    LfPi,
    LfTerm,
    LfVar,
    TYPE,
    KIND,
    lf_app,
    normalize,
)
from repro.lf.typecheck import infer_type, check_proof_term
from repro.lf.signature import SIGNATURE, Signature, SigEntry
from repro.lf.encode import (
    encode_term,
    encode_formula,
    encode_proof,
    decode_logic_term,
    decode_logic_formula,
)
from repro.lf.binary import serialize_lf, deserialize_lf

__all__ = [
    "LfApp",
    "LfConst",
    "LfInt",
    "LfLam",
    "LfPi",
    "LfTerm",
    "LfVar",
    "TYPE",
    "KIND",
    "lf_app",
    "normalize",
    "infer_type",
    "check_proof_term",
    "SIGNATURE",
    "Signature",
    "SigEntry",
    "encode_term",
    "encode_formula",
    "encode_proof",
    "decode_logic_term",
    "decode_logic_formula",
    "serialize_lf",
    "deserialize_lf",
]
