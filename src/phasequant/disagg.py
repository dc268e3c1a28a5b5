"""Prompt-worker / decode-worker split with a bit-exact cache transfer format.

Cache blob layout (numeric fields little-endian unless noted):

    magic  ``MXQK``                     4 bytes
    format version                      u32
    model config digest                 u64
    n_layers, n_heads, head_dim         u32 each
    seq_len                             u32
    prompt tokens                       seq_len x u32
    per layer: K then V payload         seq_len*n_heads*head_dim float32
                                        each, [seq, head, dim] order
    CRC32 (IEEE) of all preceding bytes u32

Frame layout: a 4-byte big-endian length prefix, then the payload; the
payload's first byte is the frame type, the rest its body.

    HELLO          u32 protocol version + u64 config digest (0 = not
                   asserted by the sender)
    KV_BLOB        one cache blob as above
    PREFILL_LOGITS u32 vocab size + vocab x float32 final-position logits
    GENERATE_REQ   u8 mode + u8 strategy (0 greedy, 1 temperature) +
                   f32 temperature + u64 seed + u32 max_new +
                   i64 stop token (-1 none) + u32 count + count x u32
                   prompt tokens; a greedy request carries seed 0 and
                   temperature 1.0, the ``SamplerSpec`` normal form
    TOKENS         UTF-8 trajectory dump
    ERROR          u32 code + UTF-8 message

A connection serves one request: the client sends HELLO and receives the
worker's HELLO (digest echo).  A prompt worker then takes GENERATE_REQ
(prompt tokens; sampler fields ignored) and answers KV_BLOB followed by
PREFILL_LOGITS, because decoding must start from the exact final-position logits
of the prompt pass, which the cache alone cannot reproduce.  A decode
worker takes KV_BLOB, PREFILL_LOGITS and GENERATE_REQ and answers TOKENS.
A worker runs one precision, so it refuses a request whose mode puts its
phase at another (a prompt worker checks ``mode.prefill_precision``, a
decode worker ``mode.decode_precision``) with a PROTOCOL error rather than
label another mode's result with that mode.  Any failure produces exactly
one ERROR frame.  Transports are interchangeable byte streams: a TCP
connection or a request/response file pair; the client closes each stream
it opens once its request is done.
"""

from __future__ import annotations

import contextlib
import os
import socket
import struct
import traceback
import zlib
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, List, Tuple

import numpy as np

from .engine import (
    ExecutionMode,
    SamplerSpec,
    check_context,
    render_trajectory,
    run_decode_loop,
)
from .errors import (
    BlobIntegrityError,
    ContextOverflowError,
    ProtocolError,
)
from .model import KvCache, ModelWeights, Precision, prefill

PROTOCOL_VERSION = 1
BLOB_MAGIC = b"MXQK"
BLOB_VERSION = 1
MAX_FRAME_BYTES = 1 << 30
# File names of the request/response pair in a blob directory.
REQUEST_FILE = "request.bin"
RESPONSE_FILE = "response.bin"

# Fixed-size record layouts, field by field as in the module docstring.
_BLOB_HEADER = struct.Struct("<4sIQIIII")  # magic .. seq_len
_HELLO = struct.Struct("<IQ")
_GENERATE_REQ = struct.Struct("<BBfQIqI")  # the fields before the prompt


class FrameType(IntEnum):
    HELLO = 1
    KV_BLOB = 2
    GENERATE_REQ = 3
    TOKENS = 4
    ERROR = 5
    PREFILL_LOGITS = 6


class ErrorCode(IntEnum):
    PROTOCOL = 1
    DIGEST_MISMATCH = 2
    OVERFLOW = 3
    CORRUPT = 4
    VERSION = 5
    INTERNAL = 6


class WorkerError(ProtocolError):
    def __init__(self, code: ErrorCode, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# cache blob

def serialize_kv(kv: KvCache, config_digest: int, prompt) -> bytes:
    prompt = [int(t) for t in prompt]
    if kv.length == 0:
        raise ValueError("refusing to serialize an empty cache")
    if kv.length != len(prompt):
        raise ValueError(
            f"cache length {kv.length} does not match prompt length {len(prompt)}"
        )
    cfg = kv.config
    parts = [
        _BLOB_HEADER.pack(BLOB_MAGIC, BLOB_VERSION, config_digest,
                          cfg.n_layers, cfg.n_heads, cfg.head_dim, kv.length),
        np.asarray(prompt, dtype="<u4").tobytes(),
    ]
    for layer in range(cfg.n_layers):
        parts.append(kv.keys[layer][: kv.length].astype("<f4").tobytes())
        parts.append(kv.values[layer][: kv.length].astype("<f4").tobytes())
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(struct.pack("<I", crc))
    return b"".join(parts)


@dataclass
class KvBlob:
    """A parsed cache blob.  ``keys`` and ``values`` are read-only
    [n_layers, seq_len, n_heads, head_dim] float32 views of the blob bytes:
    ``to_cache`` makes the one copy."""

    digest: int
    n_layers: int
    n_heads: int
    head_dim: int
    seq_len: int
    prompt: List[int]
    keys: np.ndarray
    values: np.ndarray

    def to_cache(self, weights: ModelWeights) -> KvCache:
        cfg = weights.config
        if (self.n_layers, self.n_heads, self.head_dim) != (
            cfg.n_layers, cfg.n_heads, cfg.head_dim,
        ):
            raise BlobIntegrityError("blob geometry does not match the model")
        if self.seq_len > cfg.max_seq_len:
            raise BlobIntegrityError("blob longer than the model context")
        kv = KvCache(cfg)
        for i in range(cfg.n_layers):
            kv.keys[i][: self.seq_len] = self.keys[i]
            kv.values[i][: self.seq_len] = self.values[i]
        kv.length = self.seq_len
        return kv


def deserialize_kv(data: bytes) -> KvBlob:
    """Parse and integrity-check a cache blob; raises BlobIntegrityError."""
    head = _BLOB_HEADER.size
    if len(data) < head + 4:
        raise BlobIntegrityError("blob truncated")
    magic, version, digest, n_layers, n_heads, head_dim, seq_len = \
        _BLOB_HEADER.unpack_from(data)
    if magic != BLOB_MAGIC:
        raise BlobIntegrityError("bad blob magic")
    if version != BLOB_VERSION:
        raise BlobIntegrityError(f"unsupported blob version {version}")
    per_tensor = seq_len * n_heads * head_dim * 4
    expected = head + 4 * seq_len + n_layers * 2 * per_tensor + 4
    if len(data) != expected:
        raise BlobIntegrityError(
            f"blob length {len(data)} does not match header ({expected})"
        )
    (stored_crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if (zlib.crc32(data[:-4]) & 0xFFFFFFFF) != stored_crc:
        raise BlobIntegrityError("blob checksum mismatch")
    prompt = np.frombuffer(data, dtype="<u4", count=seq_len, offset=head)
    # [layer, K or V, seq, head, dim]: the payload order, as one view
    kv = np.frombuffer(data, dtype="<f4", count=n_layers * 2 * per_tensor // 4,
                       offset=head + 4 * seq_len)
    kv = kv.reshape(n_layers, 2, seq_len, n_heads, head_dim)
    kv.flags.writeable = False
    return KvBlob(
        digest=digest,
        n_layers=n_layers,
        n_heads=n_heads,
        head_dim=head_dim,
        seq_len=seq_len,
        prompt=[int(t) for t in prompt],
        keys=kv[:, 0],
        values=kv[:, 1],
    )


# ---------------------------------------------------------------------------
# framing

class FrameStream:
    """Length-prefixed frames over a pair of binary file-like objects."""

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer

    def close(self):
        """Close the reader and the writer."""
        self._reader.close()
        self._writer.close()

    def write_frame(self, ftype: FrameType, body: bytes = b""):
        payload = bytes([int(ftype)]) + body
        self._writer.write(struct.pack(">I", len(payload)) + payload)
        self._writer.flush()

    def read_frame(self) -> Tuple[FrameType, bytes]:
        head = self._read_exact(4)
        (length,) = struct.unpack(">I", head)
        if length < 1 or length > MAX_FRAME_BYTES:
            raise ProtocolError(f"invalid frame length {length}")
        payload = self._read_exact(length)
        try:
            ftype = FrameType(payload[0])
        except ValueError:
            raise ProtocolError(f"unknown frame type {payload[0]}")
        return ftype, payload[1:]

    def _read_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = self._reader.read(remaining)
            if not chunk:
                raise ProtocolError("connection closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)


def encode_hello(digest: int) -> bytes:
    return _HELLO.pack(PROTOCOL_VERSION, digest)


def decode_hello(body: bytes) -> Tuple[int, int]:
    if len(body) != _HELLO.size:
        raise ProtocolError("malformed hello")
    return _HELLO.unpack(body)


_STRATEGIES = ("greedy", "temperature")


def encode_generate_req(mode: ExecutionMode, sampler: SamplerSpec,
                        prompt) -> bytes:
    prompt = [int(t) for t in prompt]
    return _GENERATE_REQ.pack(
        list(ExecutionMode).index(mode),
        _STRATEGIES.index(sampler.strategy),
        float(sampler.temperature),
        sampler.seed or 0,
        sampler.max_new_tokens,
        sampler.stop_token if sampler.stop_token is not None else -1,
        len(prompt),
    ) + np.asarray(prompt, dtype="<u4").tobytes()


def decode_generate_req(body: bytes) -> Tuple[ExecutionMode, SamplerSpec, List[int]]:
    fixed = _GENERATE_REQ.size
    if len(body) < fixed:
        raise ProtocolError("malformed generation request")
    mode_i, strat_i, temp, seed, max_new, stop, count = \
        _GENERATE_REQ.unpack_from(body)
    if mode_i >= len(ExecutionMode) or strat_i >= len(_STRATEGIES):
        raise ProtocolError("malformed generation request")
    if len(body) != fixed + 4 * count:
        raise ProtocolError("generation request length mismatch")
    prompt = list(np.frombuffer(body, dtype="<u4", count=count, offset=fixed))
    try:
        sampler = SamplerSpec(
            strategy=_STRATEGIES[strat_i],
            temperature=temp,
            seed=seed,
            max_new_tokens=max_new,
            stop_token=None if stop < 0 else int(stop),
        )
    except ValueError as exc:
        # a well-framed request with bad sampler fields is the client's error
        raise ProtocolError(f"bad sampler fields: {exc}")
    return list(ExecutionMode)[mode_i], sampler, [int(t) for t in prompt]


def encode_logits(logits: np.ndarray) -> bytes:
    arr = np.asarray(logits, dtype="<f4")
    return struct.pack("<I", arr.size) + arr.tobytes()


def decode_logits(body: bytes) -> np.ndarray:
    if len(body) < 4:
        raise ProtocolError("malformed logits frame")
    (n,) = struct.unpack_from("<I", body)
    if len(body) != 4 + 4 * n:
        raise ProtocolError("logits frame length mismatch")
    return np.frombuffer(body, dtype="<f4", count=n, offset=4).astype(np.float32)


def encode_error(code: ErrorCode, message: str) -> bytes:
    return struct.pack("<I", int(code)) + message.encode("utf-8")


def decode_error(body: bytes) -> Tuple[int, str]:
    if len(body) < 4:
        raise ProtocolError("malformed error frame")
    (code,) = struct.unpack_from("<I", body)
    return code, body[4:].decode("utf-8", errors="replace")


# ---------------------------------------------------------------------------
# workers

def _receive(stream: FrameStream, wanted: FrameType) -> bytes:
    ftype, body = stream.read_frame()
    if ftype is not wanted:
        raise WorkerError(ErrorCode.PROTOCOL, f"unexpected frame {ftype.name}")
    return body


def _receive_request(stream: FrameStream, phase: str, precision: Precision):
    """Read GENERATE_REQ and refuse a mode whose ``phase`` precision is not
    the worker's own ``precision``."""
    mode, sampler, prompt = decode_generate_req(
        _receive(stream, FrameType.GENERATE_REQ))
    wanted = getattr(mode, f"{phase}_precision")
    if wanted is not precision:
        raise WorkerError(
            ErrorCode.PROTOCOL,
            f"mode {mode.value} runs {phase} at {wanted.value}; this worker "
            f"runs {precision.value}",
        )
    return mode, sampler, prompt


def _handshake(stream: FrameStream, digest: int):
    version, peer_digest = decode_hello(_receive(stream, FrameType.HELLO))
    if version != PROTOCOL_VERSION:
        raise WorkerError(ErrorCode.VERSION, f"protocol version {version} unsupported")
    if peer_digest not in (0, digest):
        raise WorkerError(
            ErrorCode.DIGEST_MISMATCH,
            f"peer expects digest {peer_digest:016x}, model has {digest:016x}",
        )
    stream.write_frame(FrameType.HELLO, encode_hello(digest))


def _error_code(exc: Exception) -> ErrorCode:
    if isinstance(exc, WorkerError):
        return exc.code
    if isinstance(exc, ContextOverflowError):
        return ErrorCode.OVERFLOW
    if isinstance(exc, BlobIntegrityError):
        return ErrorCode.CORRUPT
    if isinstance(exc, (ProtocolError, ValueError)):
        return ErrorCode.PROTOCOL
    return ErrorCode.INTERNAL


def _serve(stream: FrameStream, weights: ModelWeights,
           handle: Callable[[int], None]):
    """Run the handshake, then ``handle(config digest)``.

    Any failure of either becomes exactly one ERROR frame, so a bad request
    never ends the worker; an unexpected one (INTERNAL) also prints its
    traceback to stderr.
    """
    digest = weights.config.digest()
    try:
        _handshake(stream, digest)
        handle(digest)
    except Exception as exc:
        code = _error_code(exc)
        if code is ErrorCode.INTERNAL:
            traceback.print_exc()
        try:  # best effort: the peer may already be gone
            stream.write_frame(FrameType.ERROR, encode_error(code, str(exc)))
        except OSError:
            pass


def serve_prefill(stream: FrameStream, weights: ModelWeights,
                  precision: Precision):
    """Handle one prompt request: reply KV_BLOB then PREFILL_LOGITS."""

    def handle(digest: int):
        _, _, prompt = _receive_request(stream, "prefill", precision)
        if not prompt:
            raise WorkerError(ErrorCode.PROTOCOL, "empty prompt")
        result = prefill(weights, prompt, precision)
        stream.write_frame(FrameType.KV_BLOB, serialize_kv(result.kv, digest, prompt))
        stream.write_frame(FrameType.PREFILL_LOGITS, encode_logits(result.logits))

    _serve(stream, weights, handle)


def serve_decode(stream: FrameStream, weights: ModelWeights,
                 precision: Precision):
    """Handle one decode request: consume blob + logits + request, reply TOKENS."""

    def handle(digest: int):
        blob = deserialize_kv(_receive(stream, FrameType.KV_BLOB))
        if blob.digest != digest:
            raise WorkerError(
                ErrorCode.DIGEST_MISMATCH,
                f"blob digest {blob.digest:016x} does not match model "
                f"{digest:016x}",
            )
        first_logits = decode_logits(_receive(stream, FrameType.PREFILL_LOGITS))
        if first_logits.size != weights.config.vocab_size:
            raise WorkerError(ErrorCode.PROTOCOL, "logits size mismatch")
        mode, sampler, _ = _receive_request(stream, "decode", precision)
        kv = blob.to_cache(weights)
        check_context(weights.config, len(blob.prompt), sampler.max_new_tokens)
        traj = run_decode_loop(weights, kv, first_logits, precision, sampler,
                               blob.prompt, mode.value)
        stream.write_frame(
            FrameType.TOKENS, render_trajectory(traj).encode("utf-8")
        )

    _serve(stream, weights, handle)


# ---------------------------------------------------------------------------
# client

def _expect(stream: FrameStream, wanted: FrameType) -> bytes:
    ftype, body = stream.read_frame()
    if ftype is FrameType.ERROR:
        code, message = decode_error(body)
        try:
            known = ErrorCode(code)
        except ValueError:
            raise ProtocolError(
                f"ERROR frame with unknown code {code}: {message}") from None
        raise WorkerError(known, message)
    if ftype is not wanted:
        raise ProtocolError(f"expected {wanted.name}, got {ftype.name}")
    return body


def request_prefill(stream: FrameStream, prompt, mode: ExecutionMode,
                    sampler: SamplerSpec, digest: int = 0) -> Tuple[bytes, bytes]:
    """Client side of a prompt request; returns raw blob and logits bodies.

    All request frames go out before any reply is read, so the same code
    drives interactive sockets and one-shot file pairs.
    """
    stream.write_frame(FrameType.HELLO, encode_hello(digest))
    stream.write_frame(
        FrameType.GENERATE_REQ, encode_generate_req(mode, sampler, prompt)
    )
    _expect(stream, FrameType.HELLO)
    blob = _expect(stream, FrameType.KV_BLOB)
    logits = _expect(stream, FrameType.PREFILL_LOGITS)
    return blob, logits


def request_decode(stream: FrameStream, blob: bytes, logits: bytes,
                   mode: ExecutionMode, sampler: SamplerSpec,
                   digest: int = 0) -> str:
    """Client side of a decode request; returns the trajectory dump text."""
    stream.write_frame(FrameType.HELLO, encode_hello(digest))
    stream.write_frame(FrameType.KV_BLOB, blob)
    stream.write_frame(FrameType.PREFILL_LOGITS, logits)
    stream.write_frame(
        FrameType.GENERATE_REQ, encode_generate_req(mode, sampler, [])
    )
    _expect(stream, FrameType.HELLO)
    return _expect(stream, FrameType.TOKENS).decode("utf-8")


def disaggregated_generate(
    prompt,
    mode: ExecutionMode,
    sampler: SamplerSpec,
    prefill_connect: Callable[[], FrameStream],
    decode_connect: Callable[[], FrameStream],
) -> str:
    """Run one generation through a prompt worker and a decode worker.

    The blob and logits bytes are forwarded untouched, so the decode worker
    sees exactly what the prompt worker produced.  Only the blob header is
    read here, for its config digest: a blob too short to hold one raises
    ``BlobIntegrityError``.  Each stream is closed once its request is
    done, or has failed.
    """
    with contextlib.closing(prefill_connect()) as stream:
        blob, logits = request_prefill(stream, prompt, mode, sampler)
    if len(blob) < _BLOB_HEADER.size:
        raise BlobIntegrityError(f"blob of {len(blob)} bytes has no header")
    digest = _BLOB_HEADER.unpack_from(blob)[2]
    with contextlib.closing(decode_connect()) as stream:
        return request_decode(stream, blob, logits, mode, sampler, digest=digest)


# ---------------------------------------------------------------------------
# transports

class _SocketStream(FrameStream):
    def __init__(self, sock: socket.socket):
        # Both ends write a large frame and then a small one; with Nagle's
        # algorithm the small one waits for the peer's delayed ACK (~40 ms).
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        fh = sock.makefile("rwb")
        super().__init__(fh, fh)

    def close(self):
        """Close the file object over the socket, then the socket."""
        super().close()
        self._sock.close()


def connect_tcp(host: str, port: int) -> FrameStream:
    return _SocketStream(socket.create_connection((host, port)))


class TcpWorker:
    """Sequential one-connection-at-a-time TCP server for a worker handler."""

    def __init__(self, host: str, port: int,
                 handler: Callable[[FrameStream], None]):
        self._handler = handler
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind((host, port))
        self._server.listen(1)
        self.address = self._server.getsockname()
        self._closed = False

    def serve_one(self):
        conn, _ = self._server.accept()
        with conn, contextlib.closing(_SocketStream(conn)) as stream:
            self._handler(stream)

    def serve_forever(self):
        """Serve connections one by one until ``close``.  A connection
        that fails in any way prints its traceback to stderr, and the
        worker goes on serving."""
        while not self._closed:
            try:
                self.serve_one()
            except Exception:
                if not self._closed:  # a closed listener ends the loop quietly
                    traceback.print_exc()

    def close(self):
        """Stop listening; a ``serve_forever`` loop ends once its current
        connection, if any, is done."""
        self._closed = True
        try:
            self._server.shutdown(socket.SHUT_RDWR)  # wakes a blocked accept
        except OSError:
            pass
        self._server.close()


def serve_blob_dir(directory: str, handler: Callable[[FrameStream], None]):
    """File-pair transport: read all request frames, write response frames."""
    req = os.path.join(directory, REQUEST_FILE)
    resp = os.path.join(directory, RESPONSE_FILE)
    with open(req, "rb") as reader, open(resp, "wb") as writer:
        handler(FrameStream(reader, writer))


class FileExchange:
    """Client-side file-pair transport.

    Frames written by the client accumulate in the request file; calling
    the worker flushes them through ``serve_blob_dir``; replies are then
    read back from the response file.  Reads transparently trigger the
    exchange, so the same client code drives sockets and files.
    """

    def __init__(self, directory: str, run_worker: Callable[[str], None]):
        self._dir = directory
        self._run_worker = run_worker
        self._request = open(os.path.join(directory, REQUEST_FILE), "wb")
        self._response = None

    def _reader(self):
        if self._response is None:
            self._request.close()
            self._run_worker(self._dir)
            self._response = open(os.path.join(self._dir, RESPONSE_FILE), "rb")
        return self._response

    def stream(self) -> FrameStream:
        exchange = self

        class _LazyReader:
            def read(self, n):
                return exchange._reader().read(n)

            def close(self):
                exchange.close()

        return FrameStream(_LazyReader(), self._request)

    def close(self):
        if self._response is not None:
            self._response.close()
        if not self._request.closed:
            self._request.close()
