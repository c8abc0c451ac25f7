"""The wire protocol: round trips, legacy frames, structured errors."""

import json

import numpy as np
import pytest

from repro.serve import protocol
from repro.serve.protocol import (
    BatchQueryRequest,
    BatchQueryResponse,
    EpochRequest,
    EpochResponse,
    ErrorResponse,
    IngestRequest,
    IngestResponse,
    ProtocolError,
    QueryRequest,
    QueryResponse,
    StatsRequest,
    StatsResponse,
    decode_request,
    decode_response,
    encode,
)

# ----------------------------------------------------------- round-trip laws


def _random_request(rng):
    kind = rng.integers(0, 5)
    rid = [None, int(rng.integers(0, 1_000_000)), f"req-{rng.integers(0, 99)}"][
        rng.integers(0, 3)
    ]
    sketch = [None, "pm25-avg", "g5"][rng.integers(0, 3)]
    if kind == 0:
        q = tuple(float(x) for x in rng.standard_normal(int(rng.integers(1, 9))))
        return QueryRequest(q=q, id=rid, sketch=sketch)
    if kind == 1:
        d = int(rng.integers(1, 6))
        q = tuple(
            tuple(float(x) for x in rng.standard_normal(d))
            for _ in range(int(rng.integers(1, 5)))
        )
        return BatchQueryRequest(q=q, id=rid, sketch=sketch)
    if kind == 2:
        d = int(rng.integers(1, 5))
        rows = tuple(
            tuple(float(x) for x in rng.standard_normal(d))
            for _ in range(int(rng.integers(1, 4)))
        )
        delete = None
        if rng.integers(0, 2):
            lo = tuple(float(x) for x in rng.standard_normal(d))
            delete = (lo, tuple(x + 1.0 for x in lo))
        return IngestRequest(rows=rows, delete=delete, id=rid, sketch=sketch)
    if kind == 3:
        return EpochRequest(id=rid, sketch=sketch)
    return StatsRequest(id=rid, sketch=sketch)


def _random_response(rng):
    kind = rng.integers(0, 6)
    rid = [None, int(rng.integers(0, 1_000_000))][rng.integers(0, 2)]
    if kind == 0:
        return QueryResponse(
            answer=float(rng.standard_normal()),
            cached=bool(rng.integers(0, 2)),
            id=rid,
            sketch=[None, "bench"][rng.integers(0, 2)],
        )
    if kind == 1:
        answers = tuple(float(x) for x in rng.standard_normal(int(rng.integers(0, 6))))
        return BatchQueryResponse(answers=answers, id=rid)
    if kind == 2:
        return StatsResponse(stats={"batcher": {"n_flushes": int(rng.integers(0, 9))}}, id=rid)
    if kind == 3:
        return IngestResponse(
            ingest={"appended": int(rng.integers(0, 99)), "swapped": bool(rng.integers(0, 2))},
            id=rid,
        )
    if kind == 4:
        return EpochResponse(
            epoch=int(rng.integers(0, 99)), data_version=int(rng.integers(0, 99)), id=rid
        )
    return ErrorResponse(
        error="something broke",
        code=protocol.ERROR_CODES[rng.integers(0, len(protocol.ERROR_CODES))],
        id=rid,
    )


def test_request_round_trip_property():
    rng = np.random.default_rng(7)
    for _ in range(200):
        request = _random_request(rng)
        assert decode_request(encode(request)) == request


def test_response_round_trip_property():
    rng = np.random.default_rng(11)
    for _ in range(200):
        response = _random_response(rng)
        assert decode_response(encode(response)) == response


def test_round_trip_preserves_float64_bits_exactly():
    # JSON repr round-trips doubles exactly; the parity acceptance depends
    # on the wire not perturbing answers.
    rng = np.random.default_rng(3)
    scales = 10.0 ** rng.uniform(-12, 12, size=64)
    values = tuple(float(x) for x in rng.standard_normal(64) * scales)
    back = decode_response(encode(BatchQueryResponse(answers=values)))
    assert np.array_equal(
        np.asarray(back.answers, dtype=np.float64), np.asarray(values, dtype=np.float64)
    )


def test_encode_accepts_bytes_and_str_symmetrically():
    request = QueryRequest(q=(0.25, 0.75), id=4)
    line = encode(request)
    assert decode_request(line) == decode_request(line.encode("utf-8")) == request


# ------------------------------------------------------------- legacy frames


def test_legacy_bare_vector_decodes_as_query():
    assert decode_request("[0.1, 0.2, 0.3]") == QueryRequest(q=(0.1, 0.2, 0.3))


def test_legacy_nested_vector_decodes_as_batch():
    assert decode_request("[[0.1, 0.2], [0.3, 0.4]]") == BatchQueryRequest(
        q=((0.1, 0.2), (0.3, 0.4))
    )


def test_legacy_id_q_dict_decodes_as_query():
    request = decode_request(json.dumps({"id": 5, "q": [0.1, 0.2]}))
    assert request == QueryRequest(q=(0.1, 0.2), id=5)


def test_nested_q_in_dict_decodes_as_batch_whatever_op_said():
    request = decode_request(json.dumps({"id": 1, "q": [[0.1], [0.2]]}))
    assert isinstance(request, BatchQueryRequest)
    assert request.q == ((0.1,), (0.2,))


def test_flat_q_with_batch_op_is_a_one_row_batch():
    request = decode_request(json.dumps({"v": 1, "op": "batch", "q": [0.1, 0.2]}))
    assert request == BatchQueryRequest(q=((0.1, 0.2),))


# ---------------------------------------------------------- structured errors


@pytest.mark.parametrize(
    "line, code",
    [
        ("this is not json", "bad-json"),
        (b"\xff\xfe not utf8 \xff", "bad-json"),
        ('"just a string"', "bad-request"),
        ("[]", "bad-request"),
        ('{"op": "query"}', "bad-request"),  # missing q
        ('{"op": "query", "q": []}', "bad-request"),
        ('{"op": "query", "q": [1.0, null]}', "bad-request"),
        ('{"op": "query", "q": [1.0, Infinity]}', "bad-request"),
        ('{"op": "explode", "q": [1.0]}', "bad-request"),
        ('{"op": "batch", "q": [[1.0], [1.0, 2.0]]}', "bad-request"),
        ('{"op": "query", "q": [1.0], "id": {"nested": 1}}', "bad-request"),
        ('{"op": "query", "q": [1.0], "sketch": 7}', "bad-request"),
        ('{"v": 2, "op": "query", "q": [1.0]}', "unsupported-version"),
        ('{"v": "1", "op": "query", "q": [1.0]}', "unsupported-version"),
    ],
)
def test_malformed_requests_raise_coded_protocol_errors(line, code):
    with pytest.raises(ProtocolError) as excinfo:
        decode_request(line)
    assert excinfo.value.code == code


def test_oversized_line_is_rejected_before_parsing():
    line = "[" + ",".join(["0.5"] * 64) + "]"
    protocol.check_line_size(line, max_bytes=1024)  # fine
    with pytest.raises(ProtocolError) as excinfo:
        protocol.check_line_size(line, max_bytes=64)
    assert excinfo.value.code == "oversized"
    # Byte bound, not character count: multibyte characters count fully.
    protocol.check_line_size("é" * 10, max_bytes=20)
    with pytest.raises(ProtocolError):
        protocol.check_line_size("é" * 11, max_bytes=20)


def test_protocol_error_converts_to_error_response():
    exc = ProtocolError("nope", code="unknown-sketch")
    response = exc.to_response(id=9)
    assert response == ErrorResponse(error="nope", code="unknown-sketch", id=9)
    with pytest.raises(ValueError):
        ProtocolError("bad", code="not-a-real-code")


def test_encode_refuses_non_finite_answers():
    with pytest.raises(ValueError):
        encode(QueryResponse(answer=float("nan")))
    with pytest.raises(ValueError):
        encode(BatchQueryResponse(answers=(1.0, float("inf"))))


@pytest.mark.parametrize(
    "line",
    [
        '{"ok": true}',  # none of answer/answers/stats
        '{"ok": "yes", "answer": 1.0}',
        '{"ok": true, "answer": true}',
        '{"ok": true, "answer": 1.0, "cached": "no"}',
        '{"ok": true, "answers": 3.0}',
        '{"ok": true, "stats": []}',
        '{"ok": false}',  # error frame without message
        '{"ok": false, "error": "x", "code": "made-up"}',
    ],
)
def test_malformed_responses_raise_protocol_errors(line):
    with pytest.raises(ProtocolError):
        decode_response(line)


def test_wire_shape_is_the_documented_envelope():
    line = json.loads(encode(QueryRequest(q=(0.5,), id=1, sketch="g5")))
    assert line == {"v": 1, "op": "query", "q": [0.5], "id": 1, "sketch": "g5"}
    line = json.loads(encode(QueryResponse(answer=1.5, cached=True, id=1)))
    assert line == {"v": 1, "ok": True, "answer": 1.5, "cached": True, "id": 1}
    line = json.loads(encode(ErrorResponse(error="x", code="timeout")))
    assert line == {"v": 1, "ok": False, "error": "x", "code": "timeout"}


# -------------------------------------------------------- ingest/epoch frames


def test_ingest_wire_shape_and_round_trip():
    request = IngestRequest(
        rows=((12.5, 40.0), (13.0, 41.0)),
        delete=((0.0, 0.0), (1.0, 1.0)),
        id=10,
        sketch="pm",
    )
    line = encode(request)
    assert json.loads(line) == {
        "v": 1,
        "op": "ingest",
        "rows": [[12.5, 40.0], [13.0, 41.0]],
        "delete": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "id": 10,
        "sketch": "pm",
    }
    assert decode_request(line) == request
    # Append-only and delete-only frames both decode.
    assert decode_request(encode(IngestRequest(rows=((1.0,),)))).delete is None
    only_delete = decode_request(encode(IngestRequest(delete=((0.0,), (1.0,)))))
    assert only_delete.rows == () and only_delete.delete == ((0.0,), (1.0,))


def test_epoch_wire_shape_and_round_trip():
    request = EpochRequest(id=3, sketch="pm")
    assert json.loads(encode(request)) == {"v": 1, "op": "epoch", "id": 3, "sketch": "pm"}
    assert decode_request(encode(request)) == request
    response = EpochResponse(epoch=4, data_version=9, id=3)
    assert json.loads(encode(response)) == {
        "v": 1,
        "ok": True,
        "epoch": 4,
        "data_version": 9,
        "id": 3,
    }
    assert decode_response(encode(response)) == response


@pytest.mark.parametrize(
    "line",
    [
        '{"v": 1, "op": "ingest"}',  # neither rows nor delete
        '{"v": 1, "op": "ingest", "rows": []}',
        '{"v": 1, "op": "ingest", "rows": [[1.0], [1.0, 2.0]]}',  # ragged
        '{"v": 1, "op": "ingest", "rows": [[1.0, null]]}',
        '{"v": 1, "op": "ingest", "delete": [0.0, 1.0]}',  # not an object
        '{"v": 1, "op": "ingest", "delete": {"lo": [0.0]}}',  # missing hi
        '{"v": 1, "op": "ingest", "delete": {"lo": [0.0], "hi": [1.0, 2.0]}}',
    ],
)
def test_malformed_ingest_requests_are_bad_requests(line):
    with pytest.raises(ProtocolError) as excinfo:
        decode_request(line)
    assert excinfo.value.code == "bad-request"


@pytest.mark.parametrize(
    "line",
    [
        '{"ok": true, "ingest": 3}',
        '{"ok": true, "epoch": 1.5}',
        '{"ok": true, "epoch": 1, "data_version": true}',
    ],
)
def test_malformed_ingest_epoch_responses_raise(line):
    with pytest.raises(ProtocolError):
        decode_response(line)
