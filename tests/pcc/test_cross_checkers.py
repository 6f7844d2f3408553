"""Cross-validation of the two independent proof checkers.

The repository has two validators for the same proofs: the direct Delta
checker over natural-deduction trees, and the LF type checker over the
encoded objects (the paper's validator).  Every certified artifact must
satisfy BOTH — a disagreement would mean one of the trusted cores is
wrong, so this is the deepest consistency test in the suite.
"""

import pytest

from repro.filters.kv import KV_PROGRAMS, kv_packet_policy
from repro.lf.encode import encode_formula, encode_proof
from repro.lf.binary import deserialize_lf, serialize_lf
from repro.lf.signature import SIGNATURE
from repro.lf.syntax import LfApp, LfConst
from repro.lf.typecheck import check_proof_term
from repro.proof.checker import check_proof


def _cross_validate(certified):
    # 1. the Delta checker accepts the raw proof
    check_proof(certified.proof, certified.predicate)
    # 2. the LF checker accepts the encoded proof
    lf_proof = encode_proof(certified.proof, certified.predicate)
    expected = LfApp(LfConst("pf"),
                     encode_formula(certified.predicate, {}, 0))
    check_proof_term(lf_proof, expected, SIGNATURE)
    # 3. and still after a wire round trip (what the consumer really sees)
    table, stream = serialize_lf(lf_proof)
    check_proof_term(deserialize_lf(table, stream), expected, SIGNATURE)


@pytest.fixture(scope="module")
def certified_kv():
    from repro.pcc import certify

    policy = kv_packet_policy()
    return {spec.name: certify(spec.source, policy,
                               invariants=spec.invariants())
            for spec in KV_PROGRAMS}


class TestCrossValidation:
    def test_resource_access(self, resource_certified):
        _cross_validate(resource_certified)

    @pytest.mark.parametrize("name", ["filter1", "filter2", "filter3",
                                      "filter4", "scratch-counter"])
    def test_packet_filters(self, certified_filters, name):
        _cross_validate(certified_filters[name])

    @pytest.mark.parametrize("name", [spec.name for spec in KV_PROGRAMS])
    def test_kv_programs(self, certified_kv, name):
        # The store-bearing programs lean hardest on long rule spines.
        _cross_validate(certified_kv[name])

    def test_checksum_with_loop(self):
        from repro.filters.checksum import (
            CHECKSUM_LOOP_PC,
            CHECKSUM_SOURCE,
            checksum_invariant,
            checksum_policy,
        )
        from repro.pcc import certify

        certified = certify(
            CHECKSUM_SOURCE, checksum_policy(),
            invariants={CHECKSUM_LOOP_PC: checksum_invariant()})
        _cross_validate(certified)

    def test_sfi_rewritten(self):
        from repro.baselines.sfi import sfi_policy, sfi_rewrite
        from repro.filters.programs import FILTERS
        from repro.pcc import certify

        certified = certify(sfi_rewrite(FILTERS[0].program), sfi_policy())
        _cross_validate(certified)

    def test_m3_compiled(self, filter_policy):
        from repro.baselines.m3 import M3_VIEW_FILTERS, compile_view
        from repro.pcc import certify

        certified = certify(compile_view(M3_VIEW_FILTERS["filter1"]),
                            filter_policy)
        _cross_validate(certified)
