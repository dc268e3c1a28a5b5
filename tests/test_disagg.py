import contextlib
import functools
import hashlib
import io
import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    exchange,
    frame_bytes,
    lazy_stream,
    serve_bytes,
    tcp_worker,
    toy_config,
    toy_weights,
    worker_pair,
)
from phasequant import model
from phasequant import disagg, engine
from phasequant.disagg import (
    ErrorCode,
    FrameStream,
    FrameType,
    TcpWorker,
    WorkerError,
    connect_tcp,
    decode_error,
    decode_generate_req,
    deserialize_kv,
    disaggregated_generate,
    encode_generate_req,
    encode_hello,
    serialize_kv,
    serve_blob_dir,
    serve_decode,
    serve_prefill,
)
from phasequant.engine import ExecutionMode, SamplerSpec, generate, render_trajectory
from phasequant.errors import BlobIntegrityError, NonFiniteError, ProtocolError
from phasequant.model import KvCache, Precision, init_model, prefill, save_model


def make_blob(weights, prompt, precision=Precision.HIGH):
    result = prefill(weights, prompt, precision)
    return serialize_kv(result.kv, prompt), result


class TestKvBlob:
    def test_round_trip_bit_exact(self, weights):
        prompt = [4, 8, 15, 16]
        blob, result = make_blob(weights, prompt)
        parsed = deserialize_kv(blob)
        assert parsed.prompt == prompt
        assert parsed.digest == weights.config.digest()
        kv = parsed.to_cache(weights)
        assert kv.length == 4
        for layer in range(weights.config.n_layers):
            assert np.array_equal(kv.keys[layer][:4], result.kv.keys[layer][:4])
            assert np.array_equal(kv.values[layer][:4],
                                  result.kv.values[layer][:4])

    def test_blob_longer_than_a_tile_round_trips(self):
        weights = toy_weights(0, max_seq_len=600)
        prompt = np.random.default_rng(3).integers(0, 64, 300).tolist()
        blob, result = make_blob(weights, prompt, Precision.NVFP4)
        kv = deserialize_kv(blob).to_cache(weights)
        assert kv.length == 300
        assert [len(t) for t in kv.keys + kv.values] == [384] * 4
        for layer in range(weights.config.n_layers):
            for ours, theirs in ((kv.keys, result.kv.keys),
                                 (kv.values, result.kv.values)):
                assert ours[layer][:300].tobytes() == theirs[layer][:300].tobytes()
        assert serialize_kv(kv, prompt) == blob

    def test_payload_is_a_read_only_view(self, weights):
        blob, result = make_blob(weights, [4, 8, 15])
        parsed = deserialize_kv(blob)
        cfg = weights.config
        shape = (cfg.n_layers, 3, cfg.n_heads, cfg.head_dim)
        for tensors, cached in ((parsed.keys, result.kv.keys),
                                (parsed.values, result.kv.values)):
            assert tensors.shape == shape
            assert not tensors.flags.writeable
            for layer in range(cfg.n_layers):
                assert np.array_equal(tensors[layer], cached[layer][:3])
        kv = parsed.to_cache(weights)
        kv.keys[0][0] += 1  # the cache owns its copy
        assert np.array_equal(parsed.keys[0], result.kv.keys[0][:3])

    def test_header_fields(self, weights):
        blob, _ = make_blob(weights, [1, 2, 3])
        assert blob[:4] == b"MXQK"
        version, = struct.unpack_from("<I", blob, 4)
        digest, = struct.unpack_from("<Q", blob, 8)
        nl, nh, hd, sl = struct.unpack_from("<IIII", blob, 16)
        assert version == 1
        assert digest == weights.config.digest()
        assert (nl, nh, hd, sl) == (weights.config.n_layers,
                                    weights.config.n_heads,
                                    weights.config.head_dim, 3)
        stored_crc, = struct.unpack_from("<I", blob, len(blob) - 4)
        assert stored_crc == (zlib.crc32(blob[:-4]) & 0xFFFFFFFF)

    def test_crc_polynomial_check_value(self):
        # standard check value of the CRC in use
        assert zlib.crc32(b"123456789") == 0xCBF43926

    def test_empty_cache_rejected(self, weights):
        from phasequant.model import KvCache

        with pytest.raises(ValueError):
            serialize_kv(KvCache(weights.config), [])

    def test_length_mismatch_rejected(self, weights):
        result = prefill(weights, [1, 2, 3], Precision.HIGH)
        with pytest.raises(ValueError):
            serialize_kv(result.kv, [1, 2])

    def test_every_single_byte_corruption_detected(self, weights):
        blob, _ = make_blob(toy_weights(0, n_layers=1, max_seq_len=16), [5, 6])
        for pos in range(len(blob)):
            corrupted = bytearray(blob)
            corrupted[pos] ^= 0x01
            with pytest.raises(BlobIntegrityError):
                deserialize_kv(bytes(corrupted))

    def test_truncation_detected(self, weights):
        blob, _ = make_blob(weights, [5, 6])
        with pytest.raises(BlobIntegrityError):
            deserialize_kv(blob[:-1])
        with pytest.raises(BlobIntegrityError):
            deserialize_kv(blob + b"\x00")

    def test_geometry_mismatch_rejected(self, weights):
        other = toy_weights(0, n_heads=1)  # head_dim 32 instead of 16
        blob, _ = make_blob(other, [1, 2])
        parsed = deserialize_kv(blob)
        with pytest.raises(BlobIntegrityError):
            parsed.to_cache(weights)


class TestFraming:
    def test_frame_round_trip(self):
        buf = io.BytesIO()
        stream = FrameStream(buf, buf)
        stream.write_frame(FrameType.HELLO, encode_hello(123))
        buf.seek(0)
        ftype, body = stream.read_frame()
        assert ftype is FrameType.HELLO
        assert disagg.decode_hello(body) == (disagg.PROTOCOL_VERSION, 123)

    def test_length_prefix_is_big_endian(self):
        buf = io.BytesIO()
        FrameStream(buf, buf).write_frame(FrameType.TOKENS, b"abc")
        raw = buf.getvalue()
        assert raw[:4] == struct.pack(">I", 4)
        assert raw[4] == int(FrameType.TOKENS)

    def test_unknown_frame_type_rejected(self):
        buf = io.BytesIO(struct.pack(">I", 1) + bytes([99]))
        with pytest.raises(ProtocolError):
            FrameStream(buf, buf).read_frame()

    def test_truncated_frame_rejected(self):
        buf = io.BytesIO(struct.pack(">I", 10) + b"\x01ab")
        with pytest.raises(ProtocolError):
            FrameStream(buf, buf).read_frame()

    @pytest.mark.parametrize("body", [b"", b"\x01\x00\x00"])
    def test_short_error_body_rejected(self, body):
        with pytest.raises(ProtocolError):
            decode_error(body)
        buf = io.BytesIO()
        FrameStream(buf, buf).write_frame(FrameType.ERROR, body)
        buf.seek(0)
        with pytest.raises(ProtocolError):
            disagg._expect(FrameStream(buf, buf), FrameType.TOKENS)

    def test_unknown_error_code_is_a_protocol_error(self):
        buf = io.BytesIO()
        FrameStream(buf, buf).write_frame(FrameType.ERROR,
                                          struct.pack("<I", 99) + b"odd")
        buf.seek(0)
        with pytest.raises(ProtocolError, match="unknown code 99") as err:
            disagg._expect(FrameStream(buf, buf), FrameType.TOKENS)
        assert not isinstance(err.value, WorkerError)

    def test_unexpected_frame_type_is_a_protocol_error(self):
        buf = io.BytesIO()
        FrameStream(buf, buf).write_frame(FrameType.HELLO, encode_hello(0))
        buf.seek(0)
        with pytest.raises(ProtocolError, match="expected TOKENS, got HELLO") \
                as err:
            disagg._expect(FrameStream(buf, buf), FrameType.TOKENS)
        assert not isinstance(err.value, WorkerError)

    def test_generate_req_round_trip(self):
        sampler = SamplerSpec(strategy="temperature", temperature=0.75, seed=42,
                              max_new_tokens=11, stop_token=7)
        body = encode_generate_req(ExecutionMode.P16D4, sampler, [1, 2, 9])
        mode, back, prompt = decode_generate_req(body)
        assert mode is ExecutionMode.P16D4
        assert prompt == [1, 2, 9]
        assert back.strategy == "temperature"
        assert back.seed == 42
        assert back.max_new_tokens == 11
        assert back.stop_token == 7
        assert np.float32(back.temperature) == np.float32(0.75)


def decode_frames(blob, logits, request):
    """A decode worker's request frames, HELLO with no digest asserted."""
    return ((FrameType.HELLO, encode_hello(0)), (FrameType.KV_BLOB, blob),
            (FrameType.PREFILL_LOGITS, logits),
            (FrameType.GENERATE_REQ, request))


def frame_types(reply):
    return [ftype for ftype, _ in reply]


def sampler_fields(max_new_tokens):
    """``SamplerSpec`` fields, in and out of its range."""
    return st.fixed_dictionaries(dict(
        strategy=st.sampled_from(("greedy", "temperature")),
        temperature=st.floats(),
        seed=st.none() | st.integers(-(1 << 70), 1 << 70),
        max_new_tokens=max_new_tokens,
        stop_token=st.none() | st.integers(-3, 70)
        | st.integers(-(1 << 64), 1 << 64),
    ))


def accepted(fields) -> SamplerSpec:
    try:
        return SamplerSpec(**fields)
    except ValueError:
        assume(False)


class TestSamplerOverTheWire:
    """Every spec ``SamplerSpec`` accepts crosses the wire unchanged and
    renders the same dump in process and through the worker pair."""

    @settings(max_examples=300, deadline=None)
    @given(sampler_fields(st.integers(-1, 1 << 33)),
           st.sampled_from(list(ExecutionMode)))
    def test_decoded_spec_equals_sent_spec(self, fields, mode):
        sampler = accepted(fields)
        back_mode, back, prompt = decode_generate_req(
            encode_generate_req(mode, sampler, [3, 1]))
        assert (back_mode, back, prompt) == (mode, sampler, [3, 1])

    @settings(max_examples=25, deadline=None)
    @given(sampler_fields(st.integers(0, 5)))
    def test_in_process_dump_equals_worker_pair_dump(self, fields):
        # either both dumps are equal, or both sides fail: a temperature so
        # small that the logits overflow raises NonFiniteError in process
        # and a PROTOCOL error frame from the decode worker
        sampler = accepted(fields)
        weights = toy_weights(0)
        prompt, mode = [8, 2, 44], ExecutionMode.MIX_QUANT
        try:
            mono = render_trajectory(generate(weights, prompt, mode, sampler))
        except NonFiniteError:
            with pytest.raises(WorkerError) as err:
                worker_pair(weights, weights, prompt, mode, sampler)
            assert err.value.code is ErrorCode.PROTOCOL
            return
        assert worker_pair(weights, weights, prompt, mode, sampler) == mono

    def test_temperature_overflow_is_a_protocol_error(self, weights):
        sampler = SamplerSpec(strategy="temperature", temperature=1e-40,
                              seed=3)
        with pytest.raises(WorkerError) as err:
            worker_pair(weights, weights, [8, 2, 44], ExecutionMode.MIX_QUANT,
                        sampler)
        assert err.value.code is ErrorCode.PROTOCOL


class TestEndToEnd:
    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_worker_pair_matches_monolithic_tcp(self, mode, weights):
        prompt = [3, 14, 15, 9, 26]
        sampler = SamplerSpec(max_new_tokens=7)
        mono = render_trajectory(generate(weights, prompt, mode, sampler))
        dump = worker_pair(weights, weights, prompt, mode, sampler)
        assert dump == mono

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_worker_pair_matches_monolithic_files(self, mode, weights,
                                                  tmp_path):
        prompt = [3, 14, 15, 9, 26]
        sampler = SamplerSpec(max_new_tokens=7)
        mono = render_trajectory(generate(weights, prompt, mode, sampler))
        dump = worker_pair(weights, weights, prompt, mode, sampler, tmp_path)
        assert dump == mono

    def test_temperature_sampling_survives_the_wire(self, weights):
        prompt = [8, 2, 44]
        sampler = SamplerSpec(strategy="temperature", temperature=0.8,
                              seed=-12345, max_new_tokens=6)
        mono = render_trajectory(
            generate(weights, prompt, ExecutionMode.MIX_QUANT, sampler))
        dump = worker_pair(weights, weights, prompt, ExecutionMode.MIX_QUANT,
                           sampler)
        assert dump == mono

    def test_greedy_seed_is_dropped_on_both_sides(self, weights):
        # a greedy spec given a seed and a temperature renders the same
        # header in process and through the worker pair
        prompt = [8, 2, 44]
        sampler = SamplerSpec(strategy="greedy", seed=5, temperature=0.3,
                              max_new_tokens=4)
        mono = render_trajectory(
            generate(weights, prompt, ExecutionMode.MIX_QUANT, sampler))
        dump = worker_pair(weights, weights, prompt, ExecutionMode.MIX_QUANT,
                           sampler)
        assert dump == mono
        assert " seed=- " in mono

    def test_transport_independence_same_wire_bytes(self, weights, tmp_path):
        # The same request bytes must elicit the same reply bytes from a
        # file-pair worker and a real TCP worker.
        sampler = SamplerSpec(max_new_tokens=3)
        request_bytes = frame_bytes(
            (FrameType.HELLO, encode_hello(0)),
            (FrameType.GENERATE_REQ,
             encode_generate_req(ExecutionMode.MIX_QUANT, sampler, [7, 7, 7])),
        )
        handler = functools.partial(serve_prefill, weights=weights,
                                    precision=Precision.NVFP4)

        d = tmp_path / "wire"
        d.mkdir()
        (d / "request.bin").write_bytes(request_bytes)
        serve_blob_dir(str(d), handler)
        file_reply = (d / "response.bin").read_bytes()

        with tcp_worker(handler) as address, \
                socket.create_connection(address) as conn:
            conn.sendall(request_bytes)
            chunks = []
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        assert b"".join(chunks) == file_reply

    def test_wrong_decode_model_rejected_at_blob(self, weights):
        other = toy_weights(99)
        sampler = SamplerSpec(max_new_tokens=2)
        blob, res = make_blob(weights, [1, 2, 3])
        reply = exchange(
            lambda s: serve_decode(s, other, Precision.HIGH),
            *decode_frames(blob, disagg.encode_logits(res.logits),
                           encode_generate_req(ExecutionMode.MIX_QUANT, sampler,
                                               [])))
        assert frame_types(reply) == [FrameType.HELLO, FrameType.ERROR]
        assert decode_error(reply[1][1])[0] == ErrorCode.DIGEST_MISMATCH

    def test_wrong_digest_rejected_at_handshake(self, weights):
        other = toy_weights(99)
        prompt = [1, 2, 3]
        sampler = SamplerSpec(max_new_tokens=2)
        blob, res = make_blob(weights, prompt)
        stream = lazy_stream(functools.partial(
            serve_bytes, lambda s: serve_decode(s, other, Precision.HIGH)))
        with pytest.raises(WorkerError) as err:
            disagg.request_decode(stream, blob, disagg.encode_logits(res.logits),
                                  ExecutionMode.MIX_QUANT, sampler,
                                  digest=weights.config.digest())
        assert err.value.code == ErrorCode.DIGEST_MISMATCH

    def test_prompt_overflow_returns_error_frame(self, weights):
        prompt = [1] * (weights.config.max_seq_len + 4)
        sampler = SamplerSpec(max_new_tokens=1)
        reply = exchange(
            lambda s: serve_prefill(s, weights, Precision.NVFP4),
            (FrameType.HELLO, encode_hello(0)),
            (FrameType.GENERATE_REQ,
             encode_generate_req(ExecutionMode.MIX_QUANT, sampler, prompt)))
        assert frame_types(reply) == [FrameType.HELLO, FrameType.ERROR]
        assert decode_error(reply[1][1])[0] == ErrorCode.OVERFLOW

    def test_worker_survives_truncated_connection(self, weights):
        with tcp_worker(lambda s: serve_prefill(s, weights, Precision.HIGH)) \
                as address, socket.create_connection(address) as conn:
            conn.sendall(b"\x00\x00\x00\x10partial")  # declared 16, sent 7

    def test_corrupted_blob_rejected_by_decode_worker(self, weights):
        sampler = SamplerSpec(max_new_tokens=2)
        blob, res = make_blob(weights, [1, 2, 3])
        corrupted = bytearray(blob)
        corrupted[len(corrupted) // 2] ^= 0x10
        reply = exchange(
            lambda s: serve_decode(s, weights, Precision.HIGH),
            *decode_frames(bytes(corrupted), disagg.encode_logits(res.logits),
                           encode_generate_req(ExecutionMode.MIX_QUANT, sampler,
                                               [])))
        assert frame_types(reply) == [FrameType.HELLO, FrameType.ERROR]
        assert decode_error(reply[1][1])[0] == ErrorCode.CORRUPT

    def test_empty_blob_rejected_by_decode_worker(self, weights):
        # a blob of no tokens with a valid checksum, which ``serialize_kv``
        # refuses to write
        cfg = weights.config
        head = struct.pack("<4sIQIIII", b"MXQK", 1, cfg.digest(), cfg.n_layers,
                           cfg.n_heads, cfg.head_dim, 0)
        blob = head + struct.pack("<I", zlib.crc32(head))
        with pytest.raises(BlobIntegrityError):
            deserialize_kv(blob)
        _, res = make_blob(weights, [1, 2, 3])
        reply = exchange(
            lambda s: serve_decode(s, weights, Precision.HIGH),
            *decode_frames(blob, disagg.encode_logits(res.logits),
                           encode_generate_req(ExecutionMode.MIX_QUANT,
                                               SamplerSpec(max_new_tokens=2),
                                               [])))
        assert frame_types(reply) == [FrameType.HELLO, FrameType.ERROR]
        assert decode_error(reply[1][1])[0] == ErrorCode.CORRUPT

    @pytest.mark.parametrize("size", [0, 8, 31])
    def test_short_blob_from_prompt_worker_is_an_integrity_error(self, size,
                                                                  weights):
        # a fake prompt worker that answers a KV_BLOB too short for a
        # header; the client forwards it unread, and the decode worker
        # refuses it
        def fake_prompt_worker(stream):
            stream.read_frame()
            stream.read_frame()
            stream.write_frame(FrameType.HELLO, encode_hello(0))
            stream.write_frame(FrameType.KV_BLOB, bytes(size))
            stream.write_frame(FrameType.PREFILL_LOGITS, b"")

        with tcp_worker(fake_prompt_worker) as pre, tcp_worker(
                lambda s: serve_decode(s, weights, Precision.HIGH)) as dec:
            with pytest.raises(WorkerError) as err:
                disaggregated_generate(
                    [1, 2, 3], ExecutionMode.MIX_QUANT,
                    SamplerSpec(max_new_tokens=1),
                    lambda: connect_tcp(*pre), lambda: connect_tcp(*dec))
        assert err.value.code is ErrorCode.CORRUPT

    def test_refusal_before_the_request_ends_reaches_the_client(self,
                                                                 weights):
        # the decode worker refuses the blob before it reads the logits and
        # the request frames; unless it reads them before closing, the
        # connection is reset, and some clients then fail to write or read
        n = 100
        codes = []
        with tcp_worker(lambda s: serve_decode(s, weights, Precision.HIGH),
                        connections=n) as address:
            for _ in range(n):
                with contextlib.closing(connect_tcp(*address)) as stream, \
                        pytest.raises(WorkerError) as err:
                    disagg.request_decode(stream, bytes(8), b"",
                                          ExecutionMode.MIX_QUANT,
                                          SamplerSpec(max_new_tokens=1))
                codes.append(err.value.code)
        assert codes == [ErrorCode.CORRUPT] * n


class TestModeCheck:
    """A worker runs one precision: a request whose mode puts the worker's
    phase at another gets one PROTOCOL error frame, and the next connection
    is served."""

    @pytest.mark.parametrize("phase, other_mode", [
        ("prefill", ExecutionMode.P16D4),
        ("decode", ExecutionMode.UNIFORM_FP4),
    ])
    def test_other_mode_refused_then_next_served(self, weights, phase,
                                                 other_mode):
        prompt = [5, 6, 7]
        mode = ExecutionMode.MIX_QUANT  # nvfp4 prompt pass, high decoding
        sampler = SamplerSpec(max_new_tokens=3)
        blob, res = make_blob(weights, prompt, Precision.NVFP4)
        logits = disagg.encode_logits(res.logits)
        if phase == "prefill":
            handler = functools.partial(serve_prefill, weights=weights,
                                        precision=mode.prefill_precision)
            expected = (blob, logits)

            def request(stream, m):
                return disagg.request_prefill(stream, prompt, m, sampler)
        else:
            handler = functools.partial(serve_decode, weights=weights,
                                        precision=mode.decode_precision)
            expected = render_trajectory(generate(weights, prompt, mode, sampler))

            def request(stream, m):
                return disagg.request_decode(stream, blob, logits, m, sampler)

        with tcp_worker(handler, connections=2) as address:
            with contextlib.closing(connect_tcp(*address)) as bad:
                bad._sock.settimeout(10)
                with pytest.raises(WorkerError) as err:
                    request(bad, other_mode)
                with pytest.raises(ProtocolError):
                    bad.read_frame()  # exactly one ERROR frame, nothing after it
            with contextlib.closing(connect_tcp(*address)) as good:
                good._sock.settimeout(10)
                reply = request(good, mode)
        assert err.value.code == ErrorCode.PROTOCOL
        assert reply == expected


def with_body(phase, ftype, body):
    """``valid_request(phase)`` with the body of its ``ftype`` frame
    replaced by ``body``."""
    return [(t, body if t is ftype else b) for t, b in valid_request(phase)]


def blob_past_context():
    """A request whose blob holds 20 positions, with a valid checksum and
    the digest of ``toy_weights(0, max_seq_len=16)``, whose context is 16
    positions; its cache's 32 rows hold all 20."""
    kv = KvCache(toy_config(0, max_seq_len=16))
    kv.length = 20
    blob = serialize_kv(kv, range(20))
    return with_body("decode", FrameType.KV_BLOB, blob)


class TestRefusedRequests:
    """Each refusal a worker makes after the handshake: its HELLO, then
    exactly one ERROR frame with the refusal's code."""

    @pytest.mark.parametrize("phase, context, request_, code", [
        pytest.param("prefill", 96, lambda: with_body(
            "prefill", FrameType.GENERATE_REQ,
            encode_generate_req(ExecutionMode.MIX_QUANT, SamplerSpec(), [])),
            ErrorCode.PROTOCOL, id="empty-prompt"),
        pytest.param("prefill", 96, lambda: with_body(
            "prefill", FrameType.GENERATE_REQ,
            valid_request("prefill")[1][1][:29]),
            ErrorCode.PROTOCOL, id="request-under-30-bytes"),
        pytest.param("decode", 96, lambda: with_body(
            "decode", FrameType.PREFILL_LOGITS, b"\x40\x00\x00"),
            ErrorCode.PROTOCOL, id="logits-under-4-bytes"),
        pytest.param("decode", 96, lambda: with_body(
            "decode", FrameType.PREFILL_LOGITS,
            disagg.encode_logits(np.zeros(63, np.float32))),
            ErrorCode.PROTOCOL, id="logits-of-another-vocabulary"),
        pytest.param("decode", 96, lambda: with_body(
            "decode", FrameType.KV_BLOB, valid_request("decode")[1][1][:35]),
            ErrorCode.CORRUPT, id="blob-under-header-and-crc"),
        pytest.param("decode", 16, blob_past_context, ErrorCode.CORRUPT,
                     id="blob-past-the-context"),
    ])
    def test_hello_then_one_error_frame(self, phase, context, request_, code):
        # ``context`` is the max_seq_len of the worker's model
        weights = toy_weights(0, max_seq_len=context)
        serve = serve_prefill if phase == "prefill" else serve_decode
        precision = getattr(ExecutionMode.MIX_QUANT, f"{phase}_precision")
        reply = exchange(lambda s: serve(s, weights, precision), *request_())
        assert frame_types(reply) == [FrameType.HELLO, FrameType.ERROR]
        assert decode_error(reply[1][1])[0] == code


def test_record_layouts_are_golden(tmp_path):
    # SHA-256 of one record of each binary layout, built from fixed seeds
    # and exact values (multiples of 1/64), so the digests hold on any
    # BLAS; a moved or resized field changes them
    cfg = toy_config(41, n_layers=1, max_seq_len=16)
    weights = init_model(cfg)
    rng = np.random.default_rng(41)
    for layer, name, shape, _ in model._layout(cfg):
        owner = weights if layer is None else weights.layers[layer]
        setattr(owner, name,
                (rng.integers(-64, 64, size=shape) / 64).astype(np.float32))
    prompt = [3, 1, 4, 1, 5]
    kv = KvCache(cfg)
    for tensor in kv.keys + kv.values:
        part = tensor[: len(prompt)]
        part[...] = rng.integers(-64, 64, size=part.shape) / 64
    kv.length = len(prompt)
    sampler = SamplerSpec(strategy="temperature", temperature=0.75, seed=-3,
                          max_new_tokens=9, stop_token=4)
    path = tmp_path / "m.mxqw"
    save_model(weights, str(path))
    records = {
        "MXQK": serialize_kv(kv, prompt),
        "HELLO": encode_hello(cfg.digest()),
        "GENERATE_REQ": encode_generate_req(ExecutionMode.MIX_QUANT, sampler,
                                            prompt),
        "MXQW": path.read_bytes(),
    }
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in records.items()}
    assert digests == {
        "MXQK": "27b8f7a8d3066b0d3abd6745bf2708188889d8c37d0952753b59b2754fd9bca8",
        "HELLO": "a310043556f529105bfb6da0fa809d51a3fe1b0852fd71265d029204cb0318cc",
        "GENERATE_REQ":
            "c888dfbd3983857f0f63dbe34e2a44f6155f477b790e8a9be3869e3e9c8b2947",
        "MXQW": "67dc9dd5ec9a8e0e932f3c2cd315b97c994d2bc9e446e02c368ac853d3a9bb18",
    }


def bad_sampler_request(prompt, temperature):
    """A well-framed GENERATE_REQ body that ``encode_generate_req`` cannot
    produce: temperature strategy with the given temperature."""
    return struct.pack(
        "<BBfQIq I", list(ExecutionMode).index(ExecutionMode.MIX_QUANT), 1,
        temperature, 7, 4, -1, len(prompt),
    ) + np.asarray(prompt, dtype="<u4").tobytes()


class TestBadSamplerFields:
    @pytest.mark.parametrize("temperature",
                             [0.0, -1.0, float("nan"), float("inf")])
    def test_decoded_as_protocol_error(self, temperature):
        with pytest.raises(ProtocolError):
            decode_generate_req(bad_sampler_request([1, 2], temperature))

    def test_tcp_worker_replies_error_then_serves_next_request(self, weights):
        prompt = [5, 6, 7]
        with tcp_worker(lambda s: serve_prefill(s, weights, Precision.NVFP4),
                        connections=2) as address:
            with contextlib.closing(connect_tcp(*address)) as bad:
                bad._sock.settimeout(10)
                bad.write_frame(FrameType.HELLO, encode_hello(0))
                bad.write_frame(FrameType.GENERATE_REQ,
                                bad_sampler_request(prompt, 0.0))
                assert bad.read_frame()[0] is FrameType.HELLO
                ftype, body = bad.read_frame()
            assert ftype is FrameType.ERROR
            assert decode_error(body)[0] == ErrorCode.PROTOCOL

            with contextlib.closing(connect_tcp(*address)) as good:
                good._sock.settimeout(10)
                blob, logits = disagg.request_prefill(
                    good, prompt, ExecutionMode.MIX_QUANT,
                    SamplerSpec(max_new_tokens=2))
        expected = prefill(weights, prompt, Precision.NVFP4)
        assert blob == serialize_kv(expected.kv, prompt)
        assert logits == disagg.encode_logits(expected.logits)

    def test_decode_worker_replies_error_frame(self, weights):
        blob, res = make_blob(weights, [1, 2, 3])
        reply = exchange(
            lambda s: serve_decode(s, weights, Precision.HIGH),
            *decode_frames(blob, disagg.encode_logits(res.logits),
                           bad_sampler_request([], -2.0)))
        # exactly one ERROR frame, nothing after it
        assert frame_types(reply) == [FrameType.HELLO, FrameType.ERROR]
        assert decode_error(reply[1][1])[0] == ErrorCode.PROTOCOL


class TestDecodeContextCheck:
    """The decode worker checks that the whole generation fits the context
    before it decodes anything, as ``generate`` does."""

    @pytest.fixture
    def steps(self, monkeypatch):
        calls = []
        decode_step = engine.decode_step

        def counting(*args, **kwargs):
            calls.append(1)
            return decode_step(*args, **kwargs)

        monkeypatch.setattr(engine, "decode_step", counting)
        return calls

    def reply(self, weights, prompt, sampler):
        blob, res = make_blob(weights, prompt)
        return exchange(
            lambda s: serve_decode(s, weights, Precision.HIGH),
            *decode_frames(blob, disagg.encode_logits(res.logits),
                           encode_generate_req(ExecutionMode.BASELINE16,
                                               sampler, [])))

    def test_overflow_is_one_error_frame_before_any_decode_step(self, weights,
                                                                 steps):
        prompt = [1] * (weights.config.max_seq_len - 3)
        reply = self.reply(weights, prompt, SamplerSpec(max_new_tokens=5))
        # exactly one ERROR frame, nothing after it
        assert frame_types(reply) == [FrameType.HELLO, FrameType.ERROR]
        assert decode_error(reply[1][1])[0] == ErrorCode.OVERFLOW
        assert steps == []

    def test_generation_that_just_fits_is_served(self, weights, steps):
        prompt = [1] * (weights.config.max_seq_len - 3)
        sampler = SamplerSpec(max_new_tokens=4)
        reply = self.reply(weights, prompt, sampler)
        assert frame_types(reply) == [FrameType.HELLO, FrameType.TOKENS]
        assert len(steps) == 3
        mono = generate(weights, prompt, ExecutionMode.BASELINE16, sampler)
        assert reply[1][1].decode("utf-8") == render_trajectory(mono)


class TestUnexpectedFailures:
    def test_tcp_decode_worker_answers_nan_logits_then_serves_next(self,
                                                                   weights):
        prompt = [1, 2, 3]
        mode = ExecutionMode.BASELINE16
        sampler = SamplerSpec(max_new_tokens=3)
        blob, res = make_blob(weights, prompt)
        nan_logits = disagg.encode_logits(
            np.full(weights.config.vocab_size, np.nan, dtype=np.float32))
        with tcp_worker(lambda s: serve_decode(s, weights, Precision.HIGH),
                        connections=2) as address:
            with contextlib.closing(connect_tcp(*address)) as bad:
                bad._sock.settimeout(10)
                with pytest.raises(WorkerError) as err:
                    disagg.request_decode(bad, blob, nan_logits, mode, sampler)
                with pytest.raises(ProtocolError):
                    bad.read_frame()  # exactly one ERROR frame, nothing after it

            with contextlib.closing(connect_tcp(*address)) as good:
                good._sock.settimeout(10)
                dump = disagg.request_decode(
                    good, blob, disagg.encode_logits(res.logits), mode, sampler)
        assert err.value.code == ErrorCode.PROTOCOL
        assert dump == render_trajectory(generate(weights, prompt, mode, sampler))

    def test_unexpected_failure_is_one_internal_error_frame(self, weights,
                                                            monkeypatch):
        def broken_prefill(*args, **kwargs):
            raise RuntimeError("broken")

        monkeypatch.setattr(disagg, "prefill", broken_prefill)
        reply = exchange(
            lambda s: serve_prefill(s, weights, Precision.NVFP4),
            (FrameType.HELLO, encode_hello(0)),
            (FrameType.GENERATE_REQ,
             encode_generate_req(ExecutionMode.MIX_QUANT, SamplerSpec(), [1, 2])))
        assert frame_types(reply) == [FrameType.HELLO, FrameType.ERROR]
        assert decode_error(reply[1][1]) == (ErrorCode.INTERNAL, "broken")


@functools.lru_cache(maxsize=None)
def valid_request(phase):
    """A request the worker of ``phase`` serves: HELLO and GENERATE_REQ
    for the prompt worker, HELLO, KV_BLOB, PREFILL_LOGITS and GENERATE_REQ
    for the decode worker."""
    body = encode_generate_req(ExecutionMode.MIX_QUANT,
                               SamplerSpec(max_new_tokens=3), [5, 6, 7])
    if phase == "prefill":
        return ((FrameType.HELLO, encode_hello(0)),
                (FrameType.GENERATE_REQ, body))
    blob, res = make_blob(toy_weights(0), [5, 6, 7])
    return decode_frames(blob, disagg.encode_logits(res.logits), body)


@st.composite
def any_request(draw, phase):
    """Raw bytes, up to five frames of any type and body, or a valid
    request with trailing frames dropped and up to three body bytes
    overwritten."""
    kind = draw(st.sampled_from(("raw", "frames", "valid")))
    if kind == "raw":
        return [draw(st.binary(max_size=64))]
    if kind == "frames":
        return draw(st.lists(st.tuples(st.sampled_from(FrameType),
                                       st.binary(max_size=64)), max_size=5))
    valid = valid_request(phase)
    dropped = draw(st.integers(0, len(valid)))
    frames = [(ftype, bytearray(body))
              for ftype, body in valid[:len(valid) - dropped]]
    for _ in range(draw(st.integers(0, 3)) if frames else 0):
        body = draw(st.sampled_from(frames))[1]
        if body:
            body[draw(st.integers(0, len(body) - 1))] = draw(st.integers(0, 255))
    return [(ftype, bytes(body)) for ftype, body in frames]


class TestAnyRequest:
    """Whatever a client sends, either worker answers with a whole reply or
    exactly one ERROR frame, and never raises."""

    SERVED = {
        "prefill": [FrameType.HELLO, FrameType.KV_BLOB, FrameType.PREFILL_LOGITS],
        "decode": [FrameType.HELLO, FrameType.TOKENS],
    }

    @pytest.mark.parametrize("phase", ["prefill", "decode"])
    @settings(max_examples=900, deadline=None)
    @given(data=st.data())
    def test_reply_is_served_or_one_error_frame(self, phase, data):
        serve = serve_prefill if phase == "prefill" else serve_decode
        precision = getattr(ExecutionMode.MIX_QUANT, f"{phase}_precision")
        request = data.draw(any_request(phase))
        reply = exchange(lambda s: serve(s, toy_weights(0), precision),
                         *request)
        assert frame_types(reply) in ([FrameType.ERROR],
                                      [FrameType.HELLO, FrameType.ERROR],
                                      self.SERVED[phase])


def test_tcp_nodelay_on_both_ends():
    seen = {}

    def handler(stream):
        seen["worker"] = stream._sock.getsockopt(socket.IPPROTO_TCP,
                                                 socket.TCP_NODELAY)

    with tcp_worker(handler) as address, \
            contextlib.closing(connect_tcp(*address)) as client:
        client_flag = client._sock.getsockopt(socket.IPPROTO_TCP,
                                              socket.TCP_NODELAY)
    assert client_flag and seen["worker"]


def test_stream_of_a_reset_connection_closes_its_socket():
    with socket.create_server(("127.0.0.1", 0)) as server:
        stream = connect_tcp(*server.getsockname())
        peer, _ = server.accept()
    # a zero linger time makes close reset the connection
    peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
    peer.close()
    with pytest.raises(OSError):
        for _ in range(100):
            stream.write_frame(FrameType.TOKENS, b"x")
            time.sleep(0.01)
    with pytest.raises(OSError):  # the failed write's bytes, flushed again
        stream.close()
    assert stream._sock.fileno() == -1


def test_body_failing_before_any_connection_raises_only_its_error():
    # the helper's close wakes the worker thread's ``accept`` with an
    # OSError; that ends serving, not the test with a second error
    with pytest.raises(KeyError):
        with tcp_worker(lambda stream: None):
            raise KeyError("body")


def test_close_ends_serve_forever():
    worker = TcpWorker("127.0.0.1", 0, lambda stream: None)
    thread = threading.Thread(target=worker.serve_forever, daemon=True)
    thread.start()
    connect_tcp(*worker.address).close()  # one served connection first
    worker.close()
    thread.join(timeout=1.0)
    assert not thread.is_alive()


def test_serve_forever_survives_a_failing_connection(capsys):
    served = []

    def handler(stream):
        if not served:
            served.append("failed")
            raise RuntimeError("handler broke")
        served.append("served")
        stream.write_frame(FrameType.HELLO, encode_hello(0))

    worker = TcpWorker("127.0.0.1", 0, handler)
    thread = threading.Thread(target=worker.serve_forever, daemon=True)
    thread.start()
    try:
        first = connect_tcp(*worker.address)
        first._sock.settimeout(5)
        with pytest.raises(ProtocolError):  # closed without a reply
            first.read_frame()
        first.close()
        second = connect_tcp(*worker.address)
        second._sock.settimeout(5)
        ftype, _ = second.read_frame()
        second.close()
    finally:
        worker.close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert ftype is FrameType.HELLO
    assert served == ["failed", "served"]
    assert "RuntimeError: handler broke" in capsys.readouterr().err
