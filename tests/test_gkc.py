import gc
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from knowplug.gkc import (ERR_PROTOCOL, FRAME_ERROR, FRAME_LOOKUP_REQ,
                          FRAME_LOOKUP_RESP, FRAME_PUBLISH, GkcClient, GkcServer,
                          LookupEntry, LookupQuadruple, MAGIC, MAX_FRAME_BYTES,
                          ProtocolError, STATUS_OK, STATUS_VERSION_GONE,
                          VersionError, VersionStore, decode_error, decode_frame,
                          decode_lookup_request, decode_lookup_response,
                          decode_publish_notice, encode_error, encode_frame,
                          encode_lookup_request, encode_lookup_response,
                          encode_publish_notice, lookup_batch)
from knowplug.servingkit import KnowledgeSnapshot, compose_serving_knowledge, \
    save_snapshot


def make_snapshot(version, n=16, d=3, duc=2, tag=None, n_cats=4):
    """Snapshot filled with vectors tagged by version for torn-read checks."""
    rng = np.random.default_rng(1000 + version)
    base = float(version) if tag is None else tag
    def vecs(count, dim):
        v = rng.normal(size=(count, dim)).astype(np.float32)
        v[:, 0] = base  # checksum tag: slot zero carries the version
        return v
    return KnowledgeSnapshot(
        version=version, user_dim=d, item_dim=d, uc_dim=duc,
        user_keys=np.arange(n, dtype=np.int64), user_vecs=vecs(n, d),
        item_keys=np.arange(n, dtype=np.int64), item_vecs=vecs(n, d),
        uc_user_keys=np.arange(n, dtype=np.int64),
        uc_cat_keys=np.arange(n, dtype=np.int64) % n_cats, uc_vecs=vecs(n, duc))


# ---------------------------------------------------------------------------
# version store


def test_publish_and_retrieve_five_versions():
    store = VersionStore()
    for v in range(1, 6):
        store.publish_snapshot(make_snapshot(v))
    assert store.versions() == (1, 2, 3, 4, 5)
    for v in range(1, 6):
        assert store.get(v) is not None


def test_sixth_publish_evicts_oldest():
    store = VersionStore()
    for v in range(1, 7):
        store.publish_snapshot(make_snapshot(v))
    assert store.versions() == (2, 3, 4, 5, 6)
    assert store.get(1) is None


def test_republish_same_version_rejected():
    store = VersionStore()
    store.publish_snapshot(make_snapshot(3))
    with pytest.raises(VersionError):
        store.publish_snapshot(make_snapshot(3))
    with pytest.raises(VersionError):
        store.publish_snapshot(make_snapshot(2))


def test_lookup_batch_statuses_and_masks():
    store = VersionStore()
    store.publish_snapshot(make_snapshot(1))
    quads = [LookupQuadruple(2, 2, 2, 1),      # all present
             LookupQuadruple(999, 2, 2, 1),    # user missing
             LookupQuadruple(2, 2, 2, 42)]     # version missing
    entries = lookup_batch(store, quads)
    assert entries[0].status == STATUS_OK and entries[0].found_mask == 0b111
    assert entries[1].status == STATUS_OK
    assert entries[1].found_mask & 1 == 0 and entries[1].found_mask & 2 == 2
    assert np.all(entries[1].vector[:3] == 0)  # user slot zeroed
    assert entries[2].status == STATUS_VERSION_GONE
    assert np.all(entries[2].vector == 0)


def test_lookup_matches_offline_compose():
    store = VersionStore()
    snap = make_snapshot(1)
    store.publish_snapshot(snap)
    u, i = 5, 7
    c = int(snap.uc_cat_keys[u])
    entry = lookup_batch(store, [LookupQuadruple(u, i, c, 1)])[0]
    ref = compose_serving_knowledge(snap.user_vecs[u], snap.item_vecs[i],
                                    snap.lookup_uc([u], [c])[0][0])
    assert np.array_equal(entry.vector, ref)


def test_reader_holding_evicted_snapshot_is_unaffected():
    store = VersionStore()
    snaps = [make_snapshot(v) for v in range(1, 8)]
    store.publish_snapshot(snaps[0])
    held = store.get(1)
    before = held.user_vecs.copy()
    for s in snaps[1:]:
        store.publish_snapshot(s)
    assert store.get(1) is None
    assert np.array_equal(held.user_vecs, before)


# ---------------------------------------------------------------------------
# codec


def test_frame_layout_exact_bytes():
    frame = encode_frame(FRAME_LOOKUP_REQ, b"abc")
    assert frame[:4] == MAGIC
    assert frame[4] == FRAME_LOOKUP_REQ
    assert struct.unpack_from("<I", frame, 5)[0] == 3
    assert frame[9:] == b"abc"


def test_request_payload_layout():
    payload = encode_lookup_request([LookupQuadruple(1, 2, 3, 4)])
    assert struct.unpack_from("<I", payload)[0] == 1
    u, i = struct.unpack_from("<QQ", payload, 4)
    c, v = struct.unpack_from("<II", payload, 20)
    assert (u, i, c, v) == (1, 2, 3, 4)
    assert len(payload) == 4 + 24


quad_st = st.tuples(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 64 - 1),
                    st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(quad_st, max_size=20))
def test_lookup_request_round_trip(quads):
    rec = decode_lookup_request(encode_lookup_request(
        [LookupQuadruple(*q) for q in quads]))
    assert len(rec) == len(quads)
    for row, q in zip(rec, quads):
        assert (int(row["u"]), int(row["i"]), int(row["c"]), int(row["v"])) == q


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12), st.integers(0, 6), st.integers(0, 2 ** 31))
def test_lookup_response_round_trip(count, dim, seed):
    rng = np.random.default_rng(seed)
    entries = [LookupEntry(status=int(rng.integers(0, 2)),
                           found_mask=int(rng.integers(0, 8)),
                           vector=rng.normal(size=dim).astype(np.float32))
               for _ in range(count)]
    back = decode_lookup_response(encode_lookup_response(entries, dim))
    assert len(back) == count
    for a, b in zip(entries, back):
        assert a.status == b.status and a.found_mask == b.found_mask
        assert np.array_equal(a.vector, b.vector)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.text(max_size=40))
def test_publish_notice_round_trip(version, name):
    assert decode_publish_notice(encode_publish_notice(version, name)) \
        == (version, name)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 255), st.text(max_size=80))
def test_error_frame_round_trip(code, message):
    assert decode_error(encode_error(code, message)) == (code, message)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([FRAME_LOOKUP_REQ, FRAME_LOOKUP_RESP, FRAME_PUBLISH,
                        FRAME_ERROR]),
       st.binary(max_size=200))
def test_frame_round_trip(frame_type, payload):
    assert decode_frame(encode_frame(frame_type, payload)) == (frame_type, payload)


def test_decode_rejects_bad_magic_and_length():
    with pytest.raises(ProtocolError):
        decode_frame(b"NOPE" + bytes(5))
    frame = bytearray(encode_frame(FRAME_ERROR, b"xy"))
    with pytest.raises(ProtocolError):
        decode_frame(bytes(frame[:-1]))
    with pytest.raises(ProtocolError):
        decode_lookup_request(b"\x02\x00\x00\x00" + bytes(10))


def test_oversized_frame_rejected_at_encode():
    with pytest.raises(ProtocolError):
        encode_frame(FRAME_LOOKUP_RESP, bytes(MAX_FRAME_BYTES))


# ---------------------------------------------------------------------------
# service


@pytest.fixture()
def server(tmp_path):
    store = VersionStore()
    store.publish_snapshot(make_snapshot(1))
    store.publish_snapshot(make_snapshot(2))
    srv = GkcServer(store, snapshot_dir=tmp_path)
    srv.start()
    yield srv
    srv.stop()


def test_served_lookup_bit_identical_to_in_process(server):
    rng = np.random.default_rng(7)
    quads = [LookupQuadruple(int(rng.integers(0, 20)), int(rng.integers(0, 20)),
                             int(rng.integers(0, 4)), int(rng.integers(1, 4)))
             for _ in range(200)]
    with GkcClient(server.host, server.port) as client:
        remote = client.lookup(quads)
    local = lookup_batch(server.store, quads)
    for a, b in zip(remote, local):
        assert a.status == b.status and a.found_mask == b.found_mask
        assert np.array_equal(a.vector, b.vector)


def test_large_batch_preserves_request_order(server):
    quads = [LookupQuadruple(k % 16, (k * 7) % 16, k % 4, 1 + k % 2)
             for k in range(1000)]
    with GkcClient(server.host, server.port) as client:
        entries = client.lookup(quads)
    assert len(entries) == 1000
    snap1, snap2 = server.store.get(1), server.store.get(2)
    for k, e in enumerate(entries):
        expect = snap1 if 1 + k % 2 == 1 else snap2
        assert e.vector[0] == expect.user_vecs[k % 16][0]


def test_publish_over_wire_and_eviction(server, tmp_path):
    for v in range(3, 8):
        save_snapshot(tmp_path / f"v{v}.snap", make_snapshot(v))
    with GkcClient(server.host, server.port) as client:
        for v in range(3, 8):
            assert client.publish(v, f"v{v}.snap") == v
        assert server.store.versions() == (3, 4, 5, 6, 7)
        entry = client.lookup([LookupQuadruple(1, 1, 1, 1)])[0]
        assert entry.status == STATUS_VERSION_GONE


def test_publish_rejection_over_wire(server, tmp_path):
    save_snapshot(tmp_path / "dup.snap", make_snapshot(2))
    with GkcClient(server.host, server.port) as client:
        with pytest.raises(ProtocolError, match="server error 2"):
            client.publish(2, "dup.snap")
        # connection still usable after a publish rejection
        assert client.lookup([LookupQuadruple(1, 1, 1, 2)])[0].status == STATUS_OK


def test_malformed_magic_gets_protocol_error_then_close(server):
    with socket.create_connection((server.host, server.port), timeout=5) as raw:
        raw.sendall(b"BAD!" + bytes(16))
        rfile = raw.makefile("rb")
        head = rfile.read(9)
        assert head[:4] == MAGIC and head[4] == FRAME_ERROR
        (plen,) = struct.unpack_from("<I", head, 5)
        code, _ = decode_error(rfile.read(plen))
        assert code == ERR_PROTOCOL
        assert rfile.read(1) == b""  # server closed the connection


def test_oversized_frame_gets_protocol_error_then_close(server):
    with socket.create_connection((server.host, server.port), timeout=5) as raw:
        head = struct.pack("<4sBI", MAGIC, FRAME_LOOKUP_REQ, MAX_FRAME_BYTES + 1)
        raw.sendall(head)
        rfile = raw.makefile("rb")
        frame = rfile.read(9)
        assert frame[4] == FRAME_ERROR
        (plen,) = struct.unpack_from("<I", frame, 5)
        code, msg = decode_error(rfile.read(plen))
        assert code == ERR_PROTOCOL and "16 MiB" in msg
        assert rfile.read(1) == b""


def test_concurrent_readers_see_single_version_per_entry(server, tmp_path):
    """Readers hammer the store while publishes rotate versions; every OK
    entry's vector must carry its requested version's tag."""
    stop = threading.Event()
    errors: list[str] = []

    def reader():
        try:
            with GkcClient(server.host, server.port) as client:
                while not stop.is_set():
                    versions = server.store.versions()
                    quads = [LookupQuadruple(k, k, k % 4, versions[k % len(versions)])
                             for k in range(16)]
                    for q, e in zip(quads, client.lookup(quads)):
                        if e.status == STATUS_OK and e.vector[0] != float(q.v):
                            errors.append(f"v{q.v} served tag {e.vector[0]}")
        except Exception as exc:  # surface thread failures
            errors.append(repr(exc))

    threads = [threading.Thread(target=reader) for _ in range(8)]
    for t in threads:
        t.start()
    for v in range(3, 23):
        server.store.publish_snapshot(make_snapshot(v))
    stop.set()
    for t in threads:
        t.join(timeout=10)
    assert not errors, errors[:5]


def test_finished_connections_leave_no_thread_objects(server):
    """A connection's thread is garbage once the connection closes."""
    def dead_threads():
        gc.collect()
        return sum(1 for o in gc.get_objects()
                   if isinstance(o, threading.Thread) and o.ident is not None
                   and not o.is_alive())

    def serving():
        return [t for t in threading.enumerate() if "_serve_conn" in t.name]

    before = dead_threads()
    for _ in range(200):
        socket.create_connection((server.host, server.port), timeout=5).close()
    deadline = time.monotonic() + 10
    while serving() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not serving()
    assert dead_threads() - before < 10


def test_reader_on_a_closed_socket_returns_quietly():
    """stop() can close a connection before its reader thread has read a
    frame; the reader then sees EBADF and must end without raising."""
    store = VersionStore()
    srv = GkcServer(store)
    a, b = socket.socketpair()
    a.close()
    try:
        srv._serve_conn(a)
    finally:
        b.close()
        srv.stop()
