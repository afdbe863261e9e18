"""CTR keystream batches (:func:`repro.crypto.modes.ctr_batch`).

A batch changes how the runs that miss the keystream LRU are generated
(one kernel pass for the rest of the batch) and nothing else: every
keystream is byte-equal to the per-run one, and the LRU sees the same
hits, misses and evictions as the same requests made without a batch.
"""

from __future__ import annotations

import sys
import threading
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import modes
from repro.crypto.aes import AES, BLOCK_SIZE
from repro.crypto.modes import ctr_batch, ctr_counters, ctr_keystream

_KEY = bytes(range(16))
_OTHER_KEY = bytes(range(100, 132))


def _reference(key: bytes, iv: bytes, nblocks: int) -> bytes:
    """The run's keystream, one T-table block at a time."""
    cipher = AES(key)
    return b"".join(
        cipher.encrypt_block(counter.to_bytes(BLOCK_SIZE, "big"))
        for counter in ctr_counters(iv, 0, nblocks)
    )


def _iv(n: int, size: int = 8) -> bytes:
    return n.to_bytes(size, "big")


@pytest.fixture
def passes(monkeypatch):
    """Counts AES.keystream calls: one per kernel pass of CTR blocks."""
    calls: list[int] = []
    keystream = AES.keystream

    def counting(self, counters):
        calls.append(len(counters))
        return keystream(self, counters)

    monkeypatch.setattr(AES, "keystream", counting)
    return calls


def _fresh_lru(monkeypatch, maxsize: int) -> modes._KeystreamLru:
    lru = modes._KeystreamLru(maxsize)
    monkeypatch.setattr(modes, "_keystream_blocks", lru)
    return lru


def _replay(tracks, *, batched: bool, lru: modes._KeystreamLru):
    """Request every track's runs in order, each track as one batch or
    not. Returns, per request, the keystream, whether it hit, and the
    LRU's entries (oldest first) right after it."""
    events = []
    for key, runs in tracks:
        with ctr_batch(key, iter(runs)) if batched else nullcontext():
            for iv, nblocks in runs:
                hits = lru.cache_info().hits
                keystream = ctr_keystream(key, iv, nblocks * BLOCK_SIZE)
                hit = lru.cache_info().hits > hits
                events.append((keystream, hit, list(lru._entries)))
    return events


# Five tracks against a 4-entry LRU; the comments give the LRU's
# entries, oldest first, after each track.
_A1, _A2, _A3 = (_iv(1), 3), (_iv(2), 5), (_iv(3), 2)
_B1, _B2 = (_iv(4), 4), (_iv(5), 1)
_C1, _C2 = (_iv(6), 6), (_iv(7), 3)
_D1, _D2 = (_iv(8), 2), (_iv(9), 7)
_SCRIPT = [
    # Cold: all three miss, one pass.                       A1 A2 A3
    (_KEY, [_A1, _A2, _A3]),
    # All hit: no pass.                                     A3 A1 A2
    (_KEY, [_A1, _A2]),
    # Partly cached: one pass for B1 and B2.                A3 B1 A1 B2
    (_KEY, [_A3, _B1, _A1, _B2]),
    # A duplicate IV: C1's twin hits, C2 is parked.         A1 B2 C1 C2
    (_KEY, [_C1, _C1, _C2]),
    # A1 is held when D1 misses, so only D1 and D2 are generated; storing
    # D1 evicts A1, whose request then misses while D2 is still parked.
    #                                                       C2 D1 A1 D2
    (_KEY, [_D1, _A1, _D2]),
]


def test_scripted_sequence_same_hits_misses_and_evictions(monkeypatch, passes):
    plain = _replay(_SCRIPT, batched=False, lru=_fresh_lru(monkeypatch, 4))
    plain_passes = len(passes)
    passes.clear()
    lru = _fresh_lru(monkeypatch, 4)
    batched = _replay(_SCRIPT, batched=True, lru=lru)
    assert batched == plain
    hits = [hit for _, hit, _ in batched]
    assert hits == [
        False, False, False,
        True, True,
        True, False, True, False,
        False, True, False,
        False, False, False,
    ]
    assert list(lru._entries) == [
        (_KEY, iv, 0, nblocks) for iv, nblocks in (_C2, _D1, _A1, _D2)
    ]
    # Without batches every miss is its own pass; with them, each
    # track's first miss covers the rest of its track.
    assert plain_passes == hits.count(False) == 10
    assert passes == [
        3 + 5 + 2,  # A1 A2 A3
        4 + 1,  # B1 B2
        6 + 3,  # C1 C2
        2 + 7,  # D1 D2
        3,  # A1, evicted after D1 missed: a batch of one
    ]
    requested = [run for _, runs in _SCRIPT for run in runs]
    for (iv, nblocks), (keystream, _, _) in zip(requested, batched):
        assert keystream == _reference(_KEY, iv, nblocks)


def test_parked_run_enters_the_lru_only_when_requested(monkeypatch, passes):
    lru = _fresh_lru(monkeypatch, 8)
    with ctr_batch(_KEY, [_A1, _A2, _A3]):
        ctr_keystream(_KEY, _A1[0], _A1[1] * BLOCK_SIZE)
        assert len(passes) == 1
        assert lru.cache_info().currsize == 1  # A2 and A3 are parked
        assert lru.cache_info().misses == 1
        ctr_keystream(_KEY, _A2[0], _A2[1] * BLOCK_SIZE)
        assert lru.cache_info().currsize == 2
        assert lru.cache_info().misses == 2
    # A3 was never requested: it is dropped with the batch.
    assert lru.cache_info().currsize == 2
    assert lru.held([(_KEY, _A3[0], 0, _A3[1])]) == set()
    assert len(passes) == 1


def test_all_hit_batch_never_reads_its_runs(monkeypatch, passes):
    _fresh_lru(monkeypatch, 8)
    for iv, nblocks in (_A1, _A2):
        ctr_keystream(_KEY, iv, nblocks * BLOCK_SIZE)
    passes.clear()
    read = []

    def runs():
        read.append(True)
        yield from (_A1, _A2)

    with ctr_batch(_KEY, runs()):
        for iv, nblocks in (_A1, _A2):
            ctr_keystream(_KEY, iv, nblocks * BLOCK_SIZE)
    assert passes == [] and read == []


def test_other_key_and_undeclared_runs_are_batches_of_one(monkeypatch, passes):
    _fresh_lru(monkeypatch, 8)
    with ctr_batch(_KEY, [_A1, _A2]):
        stray = ctr_keystream(_KEY, _B1[0], _B1[1] * BLOCK_SIZE)
        other = ctr_keystream(_OTHER_KEY, _A1[0], _A1[1] * BLOCK_SIZE)
    assert passes == [_B1[1], _A1[1]]
    assert stray == _reference(_KEY, *_B1)
    assert other == _reference(_OTHER_KEY, *_A1)


def test_inner_batch_replaces_outer_until_it_closes(monkeypatch, passes):
    _fresh_lru(monkeypatch, 16)
    with ctr_batch(_KEY, [_A1, _A2]):
        with ctr_batch(_KEY, [_B1, _B2]):
            ctr_keystream(_KEY, _B1[0], _B1[1] * BLOCK_SIZE)
            ctr_keystream(_KEY, _B2[0], _B2[1] * BLOCK_SIZE)
        ctr_keystream(_KEY, _A1[0], _A1[1] * BLOCK_SIZE)
        ctr_keystream(_KEY, _A2[0], _A2[1] * BLOCK_SIZE)
    assert passes == [_B1[1] + _B2[1], _A1[1] + _A2[1]]


_runs = st.lists(
    st.tuples(
        st.sampled_from([_iv(n) for n in range(6)] + [_iv(7, 16), _iv(2**64 - 1)]),
        st.integers(0, 12),
    ),
    max_size=10,
)


@settings(max_examples=60, deadline=None)
@given(
    tracks=st.lists(
        st.tuples(st.sampled_from([_KEY, _OTHER_KEY]), _runs), min_size=1, max_size=5
    ),
    maxsize=st.integers(1, 8),
)
def test_batches_are_invisible_to_the_lru(tracks, maxsize):
    with pytest.MonkeyPatch.context() as monkeypatch:
        plain = _replay(tracks, batched=False, lru=_fresh_lru(monkeypatch, maxsize))
        batched = _replay(tracks, batched=True, lru=_fresh_lru(monkeypatch, maxsize))
    assert batched == plain
    requested = [(key, run) for key, runs in tracks for run in runs]
    for (key, (iv, nblocks)), (keystream, _, _) in zip(requested, batched):
        assert keystream == _reference(key, iv, nblocks)


def test_partial_lengths_are_prefixes_of_the_run(monkeypatch):
    _fresh_lru(monkeypatch, 8)
    runs = [(_iv(1), 2), (_iv(2), 3)]
    with ctr_batch(_KEY, runs):
        first = ctr_keystream(_KEY, _iv(1), 17)
        second = ctr_keystream(_KEY, _iv(2), 33)
    assert first == _reference(_KEY, _iv(1), 2)[:17]
    assert second == _reference(_KEY, _iv(2), 3)[:33]


def test_threads_with_their_own_batches(monkeypatch):
    # Eight threads share one small LRU and two keys, each opening its
    # own batches over overlapping runs: every keystream must equal the
    # per-run reference, and every request is counted once.
    lru = _fresh_lru(monkeypatch, 24)
    keys = [_KEY, _OTHER_KEY]
    tracks = [
        (keys[t % 2], [(_iv(10 * (t % 3) + i), 1 + (i + t) % 9) for i in range(12)])
        for t in range(8)
    ]
    expected = [
        [_reference(key, iv, n) for iv, n in runs] for key, runs in tracks
    ]
    barrier = threading.Barrier(8, timeout=60)
    results: list[list[list[bytes]]] = [[] for _ in range(8)]

    def worker(t):
        key, runs = tracks[t]
        barrier.wait()
        for _ in range(4):
            with ctr_batch(key, runs):
                results[t].append(
                    [ctr_keystream(key, iv, n * BLOCK_SIZE) for iv, n in runs]
                )

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for t, outputs in enumerate(results):
        assert outputs == [expected[t]] * 4
    info = lru.cache_info()
    assert info.hits + info.misses == 8 * 4 * 12
    assert info.currsize <= 24
