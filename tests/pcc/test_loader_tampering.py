"""Adversarial loader tests: tampering *after* a warm cache.

The cache must never convert "identical bytes were once valid" into
"similar bytes are valid": every mutation from ``test_tampering.py`` is
replayed against a loader that has already validated (and cached) the
pristine binary.  A flipped code byte, a swapped proof, or an altered
invariant table must MISS the cache — zero false hits — and then fail
validation exactly as it would cold.  A policy change (weaker, stronger,
or negotiated) must change the fingerprint and force re-validation.
"""

import threading

import pytest

from repro.errors import ValidationError
from repro.filters.checksum import (
    CHECKSUM_LOOP_PC,
    CHECKSUM_SOURCE,
    checksum_invariant,
    checksum_policy,
)
from repro.lf.encode import encode_formula
from repro.logic.formulas import conj, conjuncts, eq, rd
from repro.logic.terms import Var, add64
from repro.pcc import certify, validate
from repro.pcc.container import PccBinary, _HEADER, pack_invariants
from repro.pcc.loader import ExtensionLoader, policy_fingerprint
from repro.pcc.negotiate import propose_policy
from repro.runtime import PacketRuntime
from repro.vcgen.policy import SafetyPolicy


def _flip(blob: bytes, position: int, bit: int) -> bytes:
    mutated = bytearray(blob)
    mutated[position] ^= 1 << bit
    return bytes(mutated)


@pytest.fixture()
def warm_loader(resource_policy, resource_certified):
    """A loader that has already admitted the pristine binary."""
    loader = ExtensionLoader(resource_policy, capacity=512)
    loader.load(resource_certified.binary.to_bytes())
    return loader


class TestTamperAfterWarmCache:
    def test_code_bit_flips_never_hit_the_cache(self, warm_loader,
                                                resource_certified):
        """Replay of test_tampering's code sweep through the warm
        loader: every flip misses; accepted flips (harmless ones exist)
        get a *fresh* report, never the cached verdict."""
        blob = resource_certified.binary.to_bytes()
        warm_report = warm_loader.load(blob)  # the cached verdict
        hits_before = warm_loader.stats().hits
        code_start = _HEADER.size
        code_end = code_start + len(resource_certified.binary.code)
        rejected = accepted = 0
        for position in range(code_start, code_end):
            for bit in (0, 5):
                mutated = _flip(blob, position, bit)
                try:
                    report = warm_loader.load(mutated)
                except ValidationError:
                    rejected += 1
                else:
                    accepted += 1
                    assert report is not warm_report
        assert rejected > 0
        assert warm_loader.stats().hits == hits_before  # zero false hits

    def test_unconditional_store_attack_rejected_warm(self,
                                                      warm_loader,
                                                      resource_certified):
        """The targeted semantic attack (branch displacement zeroed so
        the guarded store becomes unconditional) against a warm cache."""
        binary = resource_certified.binary
        code = bytearray(binary.code)
        word = int.from_bytes(code[16:20], "little")
        word &= ~0x1FFFFF
        code[16:20] = word.to_bytes(4, "little")
        mutated = PccBinary(bytes(code), binary.relocation, binary.proof,
                            binary.invariants)
        hits_before = warm_loader.stats().hits
        with pytest.raises(ValidationError):
            warm_loader.load(mutated.to_bytes())
        assert warm_loader.stats().hits == hits_before

    def test_proof_and_relocation_flips_never_hit(self, warm_loader,
                                                  resource_certified):
        binary = resource_certified.binary
        blob = binary.to_bytes()
        hits_before = warm_loader.stats().hits
        rejected = 0
        for section_start, length in (
                (_HEADER.size + len(binary.code), len(binary.relocation)),
                (_HEADER.size + len(binary.code) + len(binary.relocation),
                 len(binary.proof))):
            step = max(1, length // 20)
            for position in range(section_start, section_start + length,
                                  step):
                for bit in (0, 3, 7):
                    try:
                        warm_loader.load(_flip(blob, position, bit))
                    except ValidationError:
                        rejected += 1
        assert rejected > 0
        assert warm_loader.stats().hits == hits_before

    def test_proof_transplant_rejected_warm(self, warm_loader,
                                            resource_certified,
                                            certified_filters):
        donor = certified_filters["filter1"].binary
        frankenstein = PccBinary(
            code=resource_certified.binary.code,
            relocation=donor.relocation,
            proof=donor.proof,
        )
        hits_before = warm_loader.stats().hits
        with pytest.raises(ValidationError):
            warm_loader.load(frankenstein.to_bytes())
        assert warm_loader.stats().hits == hits_before


class TestInvariantTampering:
    @pytest.fixture(scope="class")
    def checksum_certified(self):
        return certify(CHECKSUM_SOURCE, checksum_policy(),
                       invariants={CHECKSUM_LOOP_PC:
                                   checksum_invariant()})

    @pytest.fixture()
    def checksum_loader(self, checksum_certified):
        loader = ExtensionLoader(checksum_policy(), capacity=64)
        loader.load(checksum_certified.binary.to_bytes())
        return loader

    def test_invariant_byte_flips_miss_and_reject(self, checksum_loader,
                                                  checksum_certified):
        binary = checksum_certified.binary
        assert binary.invariants  # the loop program must carry a table
        blob = binary.to_bytes()
        start = _HEADER.size + len(binary.code) + len(binary.relocation) \
            + len(binary.proof)
        hits_before = checksum_loader.stats().hits
        for position in range(start, start + len(binary.invariants),
                              max(1, len(binary.invariants) // 16)):
            with pytest.raises(ValidationError):
                checksum_loader.load(_flip(blob, position, 1))
        assert checksum_loader.stats().hits == hits_before

    def test_every_invariant_bit_flip_is_admitted_or_rejected(
            self, checksum_certified):
        """Every single-bit flip of the invariant section either still
        validates (a flip the decoder ignores) or fails closed with a
        ValidationError — never a bare decoder or encoder exception."""
        binary = checksum_certified.binary
        blob = binary.to_bytes()
        start = len(blob) - len(binary.invariants)
        assert blob[start:] == binary.invariants
        policy = checksum_policy()
        rejected = 0
        for position in range(start, len(blob)):
            for bit in range(8):
                try:
                    validate(_flip(blob, position, bit), policy)
                except ValidationError:
                    rejected += 1
        assert rejected > 0

    def test_replaced_invariant_table_misses_and_rejects(
            self, checksum_loader, checksum_certified):
        """A well-formed but WRONG invariant table: decodes fine, but the
        recomputed predicate no longer matches the enclosed proof."""
        binary = checksum_certified.binary
        bogus = pack_invariants({CHECKSUM_LOOP_PC: encode_formula(
            eq(Var("r0"), Var("r0")), {}, 0)})
        assert bogus != binary.invariants
        mutated = PccBinary(binary.code, binary.relocation, binary.proof,
                            bogus)
        hits_before = checksum_loader.stats().hits
        with pytest.raises(ValidationError):
            checksum_loader.load(mutated.to_bytes())
        assert checksum_loader.stats().hits == hits_before


class TestDeepBinderProof:
    """A proof of 15,000 nested lambdas overflows the recursive LF walks;
    every admission path must still answer with a ValidationError."""

    @pytest.fixture(scope="class")
    def deep_binder_blob(self, certified_filters):
        victim = certified_filters["filter1"].binary
        table = bytes([1, 2]) + b"tm"          # one symbol: the type tm
        proof = b"\x05\x01\x00" * 15_000 + b"\x01\x00"
        return PccBinary(victim.code, table, proof).to_bytes()

    def test_validate_rejects(self, filter_policy, deep_binder_blob):
        assert threading.current_thread() is threading.main_thread()
        with pytest.raises(ValidationError, match="proof does not"):
            validate(deep_binder_blob, filter_policy)

    def test_loader_rejects(self, filter_policy, deep_binder_blob):
        loader = ExtensionLoader(filter_policy)
        with pytest.raises(ValidationError):
            loader.load(deep_binder_blob)
        assert len(loader) == 0

    def test_runtime_attach_rejects(self, filter_policy, deep_binder_blob):
        runtime = PacketRuntime(filter_policy)
        with pytest.raises(ValidationError):
            runtime.attach("deep", deep_binder_blob)
        assert runtime.extensions == []


class TestPolicyChangeMustRevalidate:
    def _weaker(self, base: SafetyPolicy) -> SafetyPolicy:
        """Drop the guarded-write clause (the last conjunct)."""
        weaker_pre = conj(conjuncts(base.precondition)[:-1])
        assert weaker_pre != base.precondition
        return SafetyPolicy(base.name, weaker_pre, base.postcondition,
                            base.make_checkers)

    def _stronger(self, base: SafetyPolicy) -> SafetyPolicy:
        extra = rd(add64(Var("r0"), 16))
        return SafetyPolicy(base.name,
                            conj([base.precondition, extra]),
                            base.postcondition, base.make_checkers)

    @pytest.mark.parametrize("variant", ["_weaker", "_stronger"])
    def test_changed_policy_never_reuses_a_verdict(self, variant,
                                                   resource_policy,
                                                   resource_certified):
        blob = resource_certified.binary.to_bytes()
        base_loader = ExtensionLoader(resource_policy)
        base_loader.load(blob)  # warm under the base policy

        changed = getattr(self, variant)(resource_policy)
        assert policy_fingerprint(changed) != base_loader.fingerprint
        changed_loader = ExtensionLoader(changed)
        # the proof proves the BASE predicate; under the changed
        # precondition the recomputed predicate differs, so a genuine
        # re-validation must run — and reject.
        with pytest.raises(ValidationError):
            changed_loader.load(blob)
        stats = changed_loader.stats()
        assert stats.misses == 1 and stats.hits == 0

    def test_negotiated_policy_revalidates_from_cold(self, filter_policy,
                                                     certified_filters):
        """Negotiation yields a distinct fingerprint even when the
        proposed precondition is restrictive-but-compatible; binaries
        certified under it validate fresh, never via the base cache."""
        from repro.logic.formulas import Forall, Implies, ge, lt
        from repro.logic.terms import and64
        from repro.vcgen.policy import word_identity

        r1, i = Var("r1"), Var("i")
        guard = conj([ge(i, 0), lt(i, 32), eq(and64(i, 7), 0)])
        restricted = conj([
            word_identity(r1),
            Forall("i", Implies(guard, rd(add64(r1, i)))),
        ])
        proposal = propose_policy(filter_policy, restricted)
        assert proposal.digest() == proposal.digest()

        base_loader = ExtensionLoader(filter_policy)
        base_loader.load(certified_filters["filter1"].binary.to_bytes())

        negotiated_loader = base_loader.negotiate(proposal)
        assert negotiated_loader.fingerprint != base_loader.fingerprint
        assert len(negotiated_loader) == 0  # starts cold

        certified = certify("LDQ r4, 8(r1)\nADDQ r4, 0, r0\nRET",
                            negotiated_loader.policy)
        report = negotiated_loader.load(certified.binary.to_bytes())
        assert report.instructions == 3
        stats = negotiated_loader.stats()
        assert stats.misses == 1 and stats.hits == 0
