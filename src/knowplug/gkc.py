"""General knowledge center: a versioned cache service for knowledge
snapshots.

The store retains at most `max_versions` (default 5) immutable snapshots;
publishing a newer version evicts the oldest. Readers resolve each lookup
against the single snapshot named by the quadruple's version indicator,
so a response can never mix data from two versions; an evicted or unknown
version yields a VERSION_GONE entry while the rest of the batch is still
answered. Missing keys inside a live version produce zero vectors with
the corresponding found-mask bit cleared (downstream models must stay
servable for cold users).

Wire protocol (little-endian throughout):

    frame   = magic "GKC1" | frame_type u8 | payload_len u32 | payload
    types     1 lookup request, 2 lookup response, 3 publish notice,
              4 error
    request payload  = count u32, count * (u u64, i u64, c u32, v u32)
    response payload = count u32, dim_total u32,
                       count * (status u8, found_mask u8, dim_total * f32)
    publish payload  = version u32, name_len u16, utf-8 snapshot file name
    error payload    = code u8, msg_len u32, utf-8 message

Frames over 16 MiB are rejected with PROTOCOL_ERROR and the connection is
closed. found_mask bits: 0 user, 1 item, 2 user-category. status 0 OK,
1 VERSION_GONE.
"""

from __future__ import annotations

import socket
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .servingkit import KnowledgeSnapshot, load_snapshot

MAGIC = b"GKC1"
FRAME_LOOKUP_REQ = 1
FRAME_LOOKUP_RESP = 2
FRAME_PUBLISH = 3
FRAME_ERROR = 4

STATUS_OK = 0
STATUS_VERSION_GONE = 1

ERR_PROTOCOL = 1
ERR_PUBLISH = 2
ERR_INTERNAL = 3

MAX_FRAME_BYTES = 16 * 1024 * 1024
_HEADER = struct.Struct("<4sBI")
_QUAD_DTYPE = np.dtype([("u", "<u8"), ("i", "<u8"), ("c", "<u4"), ("v", "<u4")])


class ProtocolError(RuntimeError):
    pass


class VersionError(ValueError):
    """Publish rejected: version not strictly above every retained one."""


@dataclass(frozen=True)
class LookupQuadruple:
    u: int
    i: int
    c: int
    v: int


@dataclass
class LookupEntry:
    status: int
    found_mask: int
    vector: np.ndarray


# ---------------------------------------------------------------------------
# version store


class VersionStore:
    """At most `max_versions` immutable snapshots, single-writer publishes,
    lock-free reads off an atomically swapped dict."""

    def __init__(self, max_versions: int = 5):
        if max_versions < 1:
            raise ValueError("max_versions must be >= 1")
        self.max_versions = max_versions
        self._lock = threading.Lock()
        self._snapshots: dict[int, KnowledgeSnapshot] = {}

    def versions(self) -> tuple[int, ...]:
        return tuple(sorted(self._snapshots))

    def get(self, version: int) -> KnowledgeSnapshot | None:
        return self._snapshots.get(version)

    @property
    def dim_total(self) -> int:
        snaps = self._snapshots
        return next(iter(snaps.values())).dim_total if snaps else 0

    def publish_snapshot(self, snapshot: KnowledgeSnapshot) -> int:
        with self._lock:
            if self._snapshots:
                top = max(self._snapshots)
                if snapshot.version <= top:
                    raise VersionError(
                        f"version {snapshot.version} not above retained top {top}")
                cur = next(iter(self._snapshots.values()))
                if snapshot.dim_total != cur.dim_total:
                    raise ValueError(
                        f"snapshot dim_total {snapshot.dim_total} != store "
                        f"{cur.dim_total}")
            new = dict(self._snapshots)
            new[snapshot.version] = snapshot
            while len(new) > self.max_versions:
                del new[min(new)]
            self._snapshots = new  # readers in flight keep the old dict
        return snapshot.version


def lookup_batch(store: VersionStore, quadruples) -> list[LookupEntry]:
    """Resolve a batch of (u, i, c, v) quadruples; entry k answers
    quadruple k."""
    u, i, c, v = _quad_arrays(quadruples)
    n = len(u)
    dim = store.dim_total
    vectors = np.zeros((n, dim), dtype=np.float32)
    status = np.full(n, STATUS_VERSION_GONE, dtype=np.uint8)
    masks = np.zeros(n, dtype=np.uint8)
    for version in np.unique(v):
        rows = np.flatnonzero(v == version)
        snap = store.get(int(version))
        if snap is None:
            continue
        mat, fu, fi, fuc = snap.compose_batch(u[rows], i[rows], c[rows])
        vectors[rows] = mat
        status[rows] = STATUS_OK
        masks[rows] = fu * 1 + fi * 2 + fuc * 4
    return [LookupEntry(status=int(status[k]), found_mask=int(masks[k]),
                        vector=vectors[k]) for k in range(n)]


def _quad_arrays(quadruples):
    """(u, i, c, v) columns; ids stay unsigned 64-bit per the wire contract."""
    if isinstance(quadruples, np.ndarray) and quadruples.dtype == _QUAD_DTYPE:
        q = quadruples
        return q["u"], q["i"], q["c"], q["v"]
    rows = [(q.u, q.i, q.c, q.v) if isinstance(q, LookupQuadruple) else tuple(q)
            for q in quadruples]
    if not rows:
        e = np.empty(0, dtype=np.uint64)
        return e, e, e.astype(np.uint32), e.astype(np.uint32)
    arr = np.asarray(rows, dtype=np.uint64)
    return (arr[:, 0], arr[:, 1], arr[:, 2].astype(np.uint32),
            arr[:, 3].astype(np.uint32))


# ---------------------------------------------------------------------------
# codec


def encode_frame(frame_type: int, payload: bytes) -> bytes:
    frame = _HEADER.pack(MAGIC, frame_type, len(payload)) + payload
    if len(frame) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(frame)} bytes exceeds the 16 MiB limit")
    return frame


def decode_frame(buf: bytes) -> tuple[int, bytes]:
    if len(buf) < _HEADER.size:
        raise ProtocolError("truncated frame header")
    magic, frame_type, plen = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if len(buf) != _HEADER.size + plen:
        raise ProtocolError("frame length does not match payload_len")
    return frame_type, buf[_HEADER.size:]


def encode_lookup_request(quadruples) -> bytes:
    u, i, c, v = _quad_arrays(quadruples)
    rec = np.empty(len(u), dtype=_QUAD_DTYPE)
    rec["u"], rec["i"], rec["c"], rec["v"] = u, i, c, v
    return struct.pack("<I", len(u)) + rec.tobytes()


def decode_lookup_request(payload: bytes) -> np.ndarray:
    if len(payload) < 4:
        raise ProtocolError("lookup request payload too short")
    (count,) = struct.unpack_from("<I", payload)
    want = 4 + count * _QUAD_DTYPE.itemsize
    if len(payload) != want:
        raise ProtocolError(f"lookup request payload is {len(payload)} bytes, "
                            f"expected {want}")
    return np.frombuffer(payload, dtype=_QUAD_DTYPE, count=count, offset=4)


def _entry_dtype(dim: int) -> np.dtype:
    return np.dtype([("status", "u1"), ("mask", "u1"), ("vec", "<f4", (dim,))])


def encode_lookup_response(entries: list[LookupEntry], dim_total: int) -> bytes:
    rec = np.empty(len(entries), dtype=_entry_dtype(dim_total))
    for k, e in enumerate(entries):
        rec[k] = (e.status, e.found_mask, e.vector.astype("<f4"))
    return struct.pack("<II", len(entries), dim_total) + rec.tobytes()


def decode_lookup_response(payload: bytes) -> list[LookupEntry]:
    if len(payload) < 8:
        raise ProtocolError("lookup response payload too short")
    count, dim = struct.unpack_from("<II", payload)
    dt = _entry_dtype(dim)
    want = 8 + count * dt.itemsize
    if len(payload) != want:
        raise ProtocolError(f"lookup response payload is {len(payload)} bytes, "
                            f"expected {want}")
    rec = np.frombuffer(payload, dtype=dt, count=count, offset=8)
    return [LookupEntry(status=int(r["status"]), found_mask=int(r["mask"]),
                        vector=r["vec"].copy()) for r in rec]


def encode_publish_notice(version: int, name: str = "") -> bytes:
    raw = name.encode("utf-8")
    return struct.pack("<IH", version, len(raw)) + raw


def decode_publish_notice(payload: bytes) -> tuple[int, str]:
    if len(payload) < 6:
        raise ProtocolError("publish notice payload too short")
    version, nlen = struct.unpack_from("<IH", payload)
    if len(payload) != 6 + nlen:
        raise ProtocolError("publish notice length mismatch")
    return version, payload[6:].decode("utf-8")


def encode_error(code: int, message: str) -> bytes:
    raw = message.encode("utf-8")
    return struct.pack("<BI", code, len(raw)) + raw


def decode_error(payload: bytes) -> tuple[int, str]:
    if len(payload) < 5:
        raise ProtocolError("error payload too short")
    code, mlen = struct.unpack_from("<BI", payload)
    if len(payload) != 5 + mlen:
        raise ProtocolError("error payload length mismatch")
    return code, payload[5:].decode("utf-8")


# ---------------------------------------------------------------------------
# service


def _read_exact(rfile, n: int) -> bytes:
    buf = rfile.read(n)
    if buf is None or len(buf) < n:
        raise ConnectionError("connection closed mid-frame")
    return buf


def read_frame(rfile) -> tuple[int, bytes]:
    head = _read_exact(rfile, _HEADER.size)
    magic, frame_type, plen = _HEADER.unpack(head)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if _HEADER.size + plen > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {_HEADER.size + plen} bytes exceeds the 16 MiB limit")
    return frame_type, _read_exact(rfile, plen)


class GkcServer:
    """Threaded TCP front end over a VersionStore.

    Many concurrent reader sessions are fine; publishes are serialized by
    the store and never block readers.
    """

    def __init__(self, store: VersionStore, host: str = "127.0.0.1", port: int = 0,
                 snapshot_dir: str | Path | None = None):
        self.store = store
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir else None
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._conns: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._stopping = False
        self._accept_thread: threading.Thread | None = None

    def load_snapshot_dir(self) -> list[int]:
        """Publish every *.snap file in the snapshot dir, version order."""
        if self.snapshot_dir is None:
            return []
        snaps = sorted((load_snapshot(p) for p in self.snapshot_dir.glob("*.snap")),
                       key=lambda s: s.version)
        return [self.store.publish_snapshot(s) for s in snaps]

    def start(self) -> "GkcServer":
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with self._conn_lock:
                self._conns.add(conn)
            threading.Thread(target=self._serve_conn, args=(conn,), daemon=True).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        rfile = conn.makefile("rb")
        try:
            while True:
                try:
                    frame_type, payload = read_frame(rfile)
                except OSError:  # peer gone, or stop() closed the socket
                    return
                except ProtocolError as exc:
                    self._send(conn, FRAME_ERROR, encode_error(ERR_PROTOCOL, str(exc)))
                    return
                try:
                    if frame_type == FRAME_LOOKUP_REQ:
                        quads = decode_lookup_request(payload)
                        entries = lookup_batch(self.store, quads)
                        dim = entries[0].vector.shape[0] if entries else self.store.dim_total
                        self._send(conn, FRAME_LOOKUP_RESP,
                                   encode_lookup_response(entries, dim))
                    elif frame_type == FRAME_PUBLISH:
                        self._handle_publish(conn, payload)
                    else:
                        self._send(conn, FRAME_ERROR,
                                   encode_error(ERR_PROTOCOL,
                                                f"unexpected frame type {frame_type}"))
                        return
                except ProtocolError as exc:
                    self._send(conn, FRAME_ERROR, encode_error(ERR_PROTOCOL, str(exc)))
                    return
        finally:
            rfile.close()
            conn.close()
            with self._conn_lock:
                self._conns.discard(conn)

    def _handle_publish(self, conn: socket.socket, payload: bytes) -> None:
        version, name = decode_publish_notice(payload)
        try:
            if not name:
                raise ValueError("publish notice carries no snapshot file name")
            if self.snapshot_dir is None:
                raise ValueError("server has no snapshot directory")
            path = self.snapshot_dir / name
            if path.parent != self.snapshot_dir:
                raise ValueError("snapshot name must be a bare file name")
            snap = load_snapshot(path)
            if snap.version != version:
                raise VersionError(f"file holds version {snap.version}, "
                                   f"notice says {version}")
            accepted = self.store.publish_snapshot(snap)
        except (OSError, ValueError) as exc:
            self._send(conn, FRAME_ERROR, encode_error(ERR_PUBLISH, str(exc)))
            return
        self._send(conn, FRAME_PUBLISH, encode_publish_notice(accepted, ""))

    @staticmethod
    def _send(conn: socket.socket, frame_type: int, payload: bytes) -> None:
        try:
            conn.sendall(encode_frame(frame_type, payload))
        except OSError:
            pass

    def stop(self) -> None:
        self._stopping = True
        self._listener.close()
        with self._conn_lock:
            conns = list(self._conns)
        for c in conns:
            try:
                c.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            c.close()
        if self._accept_thread:
            self._accept_thread.join(timeout=2)

    def __enter__(self) -> "GkcServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class GkcClient:
    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")

    def _roundtrip(self, frame_type: int, payload: bytes) -> tuple[int, bytes]:
        self._sock.sendall(encode_frame(frame_type, payload))
        return read_frame(self._rfile)

    def lookup(self, quadruples) -> list[LookupEntry]:
        ftype, payload = self._roundtrip(FRAME_LOOKUP_REQ,
                                         encode_lookup_request(quadruples))
        if ftype == FRAME_ERROR:
            code, msg = decode_error(payload)
            raise ProtocolError(f"server error {code}: {msg}")
        if ftype != FRAME_LOOKUP_RESP:
            raise ProtocolError(f"unexpected response frame type {ftype}")
        return decode_lookup_response(payload)

    def publish(self, version: int, snapshot_name: str) -> int:
        ftype, payload = self._roundtrip(FRAME_PUBLISH,
                                         encode_publish_notice(version, snapshot_name))
        if ftype == FRAME_ERROR:
            code, msg = decode_error(payload)
            raise ProtocolError(f"server error {code}: {msg}")
        accepted, _ = decode_publish_notice(payload)
        return accepted

    def close(self) -> None:
        self._rfile.close()
        self._sock.close()

    def __enter__(self) -> "GkcClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
