"""Property-based tests (hypothesis) on core data structures and invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.crypto import KeyStore, canonical_bytes, digest
from repro.crypto.digest import combine_digests
from repro.execution import ExecutedBatch, Ledger
from repro.protocols.base import quorum as quorum_of
from repro.sim import Simulator
from repro.trusted import TrustedCounterSet, TrustedLogSet
from repro.workload import ZipfianGenerator

# Strategy for plain-data values the canonical encoder supports.
plain_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=20)
    | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


class TestCanonicalEncodingProperties:
    @given(plain_values)
    @settings(max_examples=150, deadline=None)
    def test_encoding_is_deterministic(self, value):
        assert canonical_bytes(value) == canonical_bytes(value)
        assert digest(value) == digest(value)

    @given(st.dictionaries(st.text(max_size=6), st.integers(), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_dict_insertion_order_never_leaks(self, mapping):
        items = list(mapping.items())
        random.Random(0).shuffle(items)
        reordered = dict(items)
        assert digest(mapping) == digest(reordered)

    @given(st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_combine_digests_fixed_size(self, digests):
        assert len(combine_digests(*digests)) == 32


class TestSignatureProperties:
    @given(plain_values, plain_values)
    @settings(max_examples=100, deadline=None)
    def test_signature_verifies_only_original_message(self, message, other):
        store = KeyStore(seed=4)
        key = store.register("signer")
        signature = key.sign(message)
        assert store.is_valid(message, signature)
        if canonical_bytes(other) != canonical_bytes(message):
            assert not store.is_valid(other, signature)


class TestTrustedComponentProperties:
    @given(st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_counter_values_strictly_increase(self, increments):
        counters = TrustedCounterSet(key=KeyStore(seed=1).register("tc"))
        current = 0
        values = []
        for inc in increments:
            current += inc
            values.append(counters.append(0, current, digest(inc)).value)
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    @given(st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_appendf_values_are_contiguous(self, payloads):
        counters = TrustedCounterSet(key=KeyStore(seed=1).register("tc"))
        values = [counters.append(0, None, digest(p)).value for p in payloads]
        assert values == list(range(1, len(payloads) + 1))

    @given(st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_log_never_overwrites_a_slot(self, payloads):
        logs = TrustedLogSet(key=KeyStore(seed=1).register("tc"))
        seen = {}
        for payload in payloads:
            attestation = logs.append(0, None, digest(payload))
            assert attestation.value not in seen
            seen[attestation.value] = digest(payload)
        for slot, expected in seen.items():
            assert logs.lookup(0, slot).payload_digest == expected


class TestLedgerProperties:
    @given(st.permutations(list(range(1, 15))))
    @settings(max_examples=100, deadline=None)
    def test_last_executed_is_longest_contiguous_prefix(self, order):
        ledger = Ledger()
        recorded = set()
        for seq in order:
            ledger.record(ExecutedBatch(seq=seq, batch_digest=b"d" * 32,
                                        request_ids=(), results=(),
                                        executed_at=0.0))
            recorded.add(seq)
            expected = 0
            while expected + 1 in recorded:
                expected += 1
            assert ledger.last_executed == expected
        assert ledger.last_executed == 14


class TestQuorumProperties:
    @given(st.integers(min_value=1, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_3f1_quorums_intersect_in_an_honest_replica(self, f):
        n = 3 * f + 1
        quorum = quorum_of(n, f)
        assert quorum == 2 * f + 1
        # Two quorums of size 2f+1 out of 3f+1 overlap in at least f+1 replicas.
        overlap = 2 * quorum - n
        assert overlap >= f + 1

    @given(st.integers(min_value=1, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_2f1_weak_quorums_may_share_only_one_replica(self, f):
        n = 2 * f + 1
        quorum = quorum_of(n, f)
        assert quorum == f + 1
        overlap = 2 * quorum - n
        # The paper's responsiveness argument: the overlap can be as small as
        # a single replica, so one honest-but-isolated replica is all that is
        # guaranteed to have executed.
        assert overlap == 1


class TestSimulatorProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1_000.0,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_events_observe_monotonic_time(self, delays):
        sim = Simulator()
        observed = []
        for delay in delays:
            sim.schedule(delay, lambda: observed.append(sim.now))
        sim.run_until_idle()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)


class TestZipfianProperties:
    @given(st.integers(min_value=1, max_value=5_000),
           st.floats(min_value=0.0, max_value=0.99),
           st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=100, deadline=None)
    def test_samples_stay_in_range(self, items, theta, seed):
        generator = ZipfianGenerator(items, theta, random.Random(seed))
        for value in generator.sample(50):
            assert 0 <= value < items
