"""The versioned wire protocol every serve entry point speaks.

One request or response per line, encoded as a single JSON object — the
same frame whether the transport is stdin/stdout (``repro serve --stdio``),
a socket (:mod:`repro.serve.server` / :mod:`repro.serve.client`) or a
subprocess pipe. This module is the *only* place the wire shape lives:
the stdin loop, the asyncio server and the client all call
:func:`encode` / :func:`decode_request` / :func:`decode_response`, so a
schema change is one edit, not three.

Requests (client -> server)::

    {"v": 1, "op": "query", "id": 7, "sketch": "pm25-avg", "q": [0.1, 0.2]}
    {"v": 1, "op": "batch", "id": 8, "q": [[0.1, 0.2], [0.3, 0.4]]}
    {"v": 1, "op": "stats", "id": 9}
    {"v": 1, "op": "ingest", "id": 10, "rows": [[12.5, 40.2, 88.0]]}
    {"v": 1, "op": "ingest", "id": 11, "delete": {"lo": [0, 0, 0], "hi": [1, 1, 1]}}
    {"v": 1, "op": "epoch", "id": 12}

Responses (server -> client)::

    {"v": 1, "ok": true, "id": 7, "answer": 1.25, "cached": false, "sketch": "pm25-avg"}
    {"v": 1, "ok": true, "id": 8, "answers": [1.25, 0.75]}
    {"v": 1, "ok": true, "id": 9, "stats": {...}}
    {"v": 1, "ok": true, "id": 10, "ingest": {"appended": 1, "swapped": true, ...}}
    {"v": 1, "ok": true, "id": 12, "epoch": 3, "data_version": 7}
    {"v": 1, "ok": false, "id": 7, "error": "...", "code": "bad-request"}

``ingest`` mutates a *mutable* sketch (one served with streaming state —
see :mod:`repro.stream`): ``rows`` appends raw-unit rows, ``delete``
tombstones the raw-space box ``[lo, hi)``; a frame may carry either or
both (append applies first). Servers started without ``--mutable`` answer
ingest frames with the ``immutable`` error code. ``epoch`` reads the
sketch's current model epoch/data version without mutating anything —
clients poll it to detect a completed hot-swap.

``id`` is an opaque client token echoed back verbatim (any JSON scalar);
``sketch`` picks a registered sketch by name (``null``/absent = the
server's default). Two pre-protocol request shapes are still accepted for
compatibility with PR-3 era scripts — a bare vector ``[0.1, 0.2]`` and
``{"id": ..., "q": [...]}`` — and normalize into :class:`QueryRequest`.

Malformed input never raises past :func:`decode_request`: everything wrong
with a frame becomes a :class:`ProtocolError` carrying one of the
``ERROR_CODES`` below, which the serving loops turn into an
:class:`ErrorResponse` line instead of dying.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

#: Version this module speaks. Encoded into every frame; requests carrying
#: an unknown version are rejected with ``unsupported-version`` so old
#: clients fail loudly instead of silently misparsing.
PROTOCOL_VERSION = 1

#: Versions ``decode_request`` accepts (requests with no ``"v"`` key are
#: legacy PR-3 frames and are normalized as version 1).
SUPPORTED_VERSIONS = (1,)

#: Default per-line size bound (bytes). A line longer than this is not a
#: query, it is a mistake or an attack; serving loops reject it with an
#: ``oversized`` error and keep the connection alive.
MAX_LINE_BYTES = 1 << 20

#: The structured error vocabulary of :class:`ErrorResponse.code`.
ERROR_CODES = (
    "bad-json",             # the line is not a JSON object/array at all
    "bad-request",          # well-formed JSON, malformed request shape
    "oversized",            # line exceeded the server's byte bound
    "unsupported-version",  # request declared a protocol version we don't speak
    "unknown-sketch",       # named a sketch the service has not registered
    "immutable",            # ingest sent to a sketch/server without mutation support
    "timeout",              # the answer missed the per-request deadline
    "shutting-down",        # server is draining; request was not accepted
    "internal",             # the sketch itself raised
)


class ProtocolError(ValueError):
    """A malformed frame, tagged with a wire error ``code``."""

    def __init__(self, message: str, code: str = "bad-request") -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown protocol error code {code!r}")
        super().__init__(message)
        self.code = code

    def to_response(self, id: object = None) -> "ErrorResponse":
        return ErrorResponse(error=str(self), code=self.code, id=id)


# -------------------------------------------------------------------- requests


@dataclass(frozen=True)
class QueryRequest:
    """One query vector for one sketch."""

    q: tuple[float, ...]
    id: object = None
    sketch: str | None = None
    protocol_version: int = PROTOCOL_VERSION

    def to_wire(self) -> dict:
        out = {"v": self.protocol_version, "op": "query", "q": list(self.q)}
        if self.id is not None:
            out["id"] = self.id
        if self.sketch is not None:
            out["sketch"] = self.sketch
        return out


@dataclass(frozen=True)
class BatchQueryRequest:
    """A block of query vectors answered by one batched ``predict``."""

    q: tuple[tuple[float, ...], ...]
    id: object = None
    sketch: str | None = None
    protocol_version: int = PROTOCOL_VERSION

    def to_wire(self) -> dict:
        out = {"v": self.protocol_version, "op": "batch", "q": [list(row) for row in self.q]}
        if self.id is not None:
            out["id"] = self.id
        if self.sketch is not None:
            out["sketch"] = self.sketch
        return out


@dataclass(frozen=True)
class StatsRequest:
    """Ask for one sketch's service counters (batcher/cache/replicas)."""

    id: object = None
    sketch: str | None = None
    protocol_version: int = PROTOCOL_VERSION

    def to_wire(self) -> dict:
        out: dict = {"v": self.protocol_version, "op": "stats"}
        if self.id is not None:
            out["id"] = self.id
        if self.sketch is not None:
            out["sketch"] = self.sketch
        return out


@dataclass(frozen=True)
class IngestRequest:
    """Mutate a streaming sketch: append raw rows and/or delete a raw box.

    ``rows`` are raw-unit data rows (one per append); ``delete`` is a
    ``(lo, hi)`` pair of raw-unit bounds tombstoning every live row inside
    ``[lo, hi)``. At least one of the two must be present; when both are,
    the append applies first.
    """

    rows: tuple[tuple[float, ...], ...] = ()
    delete: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    id: object = None
    sketch: str | None = None
    protocol_version: int = PROTOCOL_VERSION

    def to_wire(self) -> dict:
        out: dict = {"v": self.protocol_version, "op": "ingest"}
        if self.rows:
            out["rows"] = [list(row) for row in self.rows]
        if self.delete is not None:
            out["delete"] = {"lo": list(self.delete[0]), "hi": list(self.delete[1])}
        if self.id is not None:
            out["id"] = self.id
        if self.sketch is not None:
            out["sketch"] = self.sketch
        return out


@dataclass(frozen=True)
class EpochRequest:
    """Read a sketch's current model epoch and data version (no mutation)."""

    id: object = None
    sketch: str | None = None
    protocol_version: int = PROTOCOL_VERSION

    def to_wire(self) -> dict:
        out: dict = {"v": self.protocol_version, "op": "epoch"}
        if self.id is not None:
            out["id"] = self.id
        if self.sketch is not None:
            out["sketch"] = self.sketch
        return out


# ------------------------------------------------------------------- responses


@dataclass(frozen=True)
class QueryResponse:
    answer: float
    cached: bool = False
    id: object = None
    sketch: str | None = None
    protocol_version: int = PROTOCOL_VERSION

    def to_wire(self) -> dict:
        out = {
            "v": self.protocol_version,
            "ok": True,
            "answer": self.answer,
            "cached": self.cached,
        }
        if self.id is not None:
            out["id"] = self.id
        if self.sketch is not None:
            out["sketch"] = self.sketch
        return out


@dataclass(frozen=True)
class BatchQueryResponse:
    answers: tuple[float, ...]
    id: object = None
    sketch: str | None = None
    protocol_version: int = PROTOCOL_VERSION

    def to_wire(self) -> dict:
        out = {"v": self.protocol_version, "ok": True, "answers": list(self.answers)}
        if self.id is not None:
            out["id"] = self.id
        if self.sketch is not None:
            out["sketch"] = self.sketch
        return out


@dataclass(frozen=True)
class StatsResponse:
    stats: dict = field(default_factory=dict)
    id: object = None
    protocol_version: int = PROTOCOL_VERSION

    def to_wire(self) -> dict:
        out = {"v": self.protocol_version, "ok": True, "stats": self.stats}
        if self.id is not None:
            out["id"] = self.id
        return out


@dataclass(frozen=True)
class IngestResponse:
    """What one ingest frame did (the ``IngestResult.to_dict()`` payload)."""

    ingest: dict = field(default_factory=dict)
    id: object = None
    sketch: str | None = None
    protocol_version: int = PROTOCOL_VERSION

    def to_wire(self) -> dict:
        out = {"v": self.protocol_version, "ok": True, "ingest": self.ingest}
        if self.id is not None:
            out["id"] = self.id
        if self.sketch is not None:
            out["sketch"] = self.sketch
        return out


@dataclass(frozen=True)
class EpochResponse:
    epoch: int = 0
    data_version: int = 0
    id: object = None
    sketch: str | None = None
    protocol_version: int = PROTOCOL_VERSION

    def to_wire(self) -> dict:
        out = {
            "v": self.protocol_version,
            "ok": True,
            "epoch": self.epoch,
            "data_version": self.data_version,
        }
        if self.id is not None:
            out["id"] = self.id
        if self.sketch is not None:
            out["sketch"] = self.sketch
        return out


@dataclass(frozen=True)
class ErrorResponse:
    """The structured error envelope (``code`` is one of ``ERROR_CODES``)."""

    error: str
    code: str = "bad-request"
    id: object = None
    protocol_version: int = PROTOCOL_VERSION

    def to_wire(self) -> dict:
        out = {
            "v": self.protocol_version,
            "ok": False,
            "error": self.error,
            "code": self.code,
        }
        if self.id is not None:
            out["id"] = self.id
        return out


Request = QueryRequest | BatchQueryRequest | StatsRequest | IngestRequest | EpochRequest
Response = (
    QueryResponse
    | BatchQueryResponse
    | StatsResponse
    | IngestResponse
    | EpochResponse
    | ErrorResponse
)


# -------------------------------------------------------------- encode/decode


def encode(message: Request | Response) -> str:
    """One wire line (no trailing newline) for any protocol dataclass.

    ``allow_nan=False``: a non-finite value must surface as an encoding
    error for the caller to turn into an :class:`ErrorResponse`, never as
    RFC-invalid bare ``NaN`` on the wire.
    """
    return json.dumps(message.to_wire(), allow_nan=False, separators=(",", ":"))


def encode_safe(response: "Response") -> str:
    """Encode a response, downgrading non-finite answers to an error frame.

    Both serving loops (socket server, stdio loop) must never put
    RFC-invalid bare ``NaN`` on the wire; this is the one shared fallback
    they use.
    """
    try:
        return encode(response)
    except ValueError:
        return encode(
            ErrorResponse(
                error="answer is not finite",
                code="internal",
                id=getattr(response, "id", None),
            )
        )


def check_line_size(line: str | bytes, max_bytes: int = MAX_LINE_BYTES) -> None:
    """Reject an oversized frame before parsing it."""
    n = len(line) if isinstance(line, (bytes, bytearray)) else len(line.encode("utf-8"))
    if n > max_bytes:
        raise ProtocolError(
            f"request line of {n} bytes exceeds the {max_bytes}-byte bound",
            code="oversized",
        )


def _parse_json(line: str | bytes) -> object:
    if isinstance(line, (bytes, bytearray)):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"line is not UTF-8: {exc}", code="bad-json") from None
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"line is not valid JSON: {exc}", code="bad-json") from None


def _check_version(payload: dict) -> int:
    v = payload.get("v", PROTOCOL_VERSION)
    if not isinstance(v, int) or isinstance(v, bool) or v not in SUPPORTED_VERSIONS:
        raise ProtocolError(
            f"protocol version {v!r} is not supported (have {list(SUPPORTED_VERSIONS)})",
            code="unsupported-version",
        )
    return v


def _finite_vector(raw: object, what: str) -> tuple[float, ...]:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ProtocolError(f"{what} must be a non-empty array of numbers")
    out = []
    for x in raw:
        if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
            raise ProtocolError(f"{what} components must be finite numbers, got {x!r}")
        out.append(float(x))
    return tuple(out)


def _sketch_name(payload: dict) -> str | None:
    sketch = payload.get("sketch")
    if sketch is not None and not isinstance(sketch, str):
        raise ProtocolError(f"sketch must be a string name, got {sketch!r}")
    return sketch


def _request_id(payload: dict) -> object:
    rid = payload.get("id")
    if rid is not None and not isinstance(rid, (str, int, float)):
        raise ProtocolError(f"id must be a JSON scalar, got {rid!r}")
    return rid


def decode_request(line: str | bytes) -> Request:
    """Parse one request line into its dataclass (or raise ProtocolError).

    Accepts the versioned ``op`` frames plus the two legacy PR-3 shapes
    (bare vector; ``{"id": ..., "q": [...]}``), which normalize into
    :class:`QueryRequest` / :class:`BatchQueryRequest`.
    """
    payload = _parse_json(line)
    if isinstance(payload, list):  # legacy: a bare query vector (or block)
        if payload and isinstance(payload[0], (list, tuple)):
            block = tuple(_finite_vector(row, f"q[{i}]") for i, row in enumerate(payload))
            if len({len(row) for row in block}) != 1:
                raise ProtocolError("batch rows must share one dimension")
            return BatchQueryRequest(q=block)
        return QueryRequest(q=_finite_vector(payload, "q"))
    if not isinstance(payload, dict):
        raise ProtocolError(f"request must be a JSON object or array, got {type(payload).__name__}")
    v = _check_version(payload)
    op = payload.get("op", "query")
    rid = _request_id(payload)
    sketch = _sketch_name(payload)
    if op == "stats":
        return StatsRequest(id=rid, sketch=sketch, protocol_version=v)
    if op == "epoch":
        return EpochRequest(id=rid, sketch=sketch, protocol_version=v)
    if op == "ingest":
        return _decode_ingest(payload, rid, sketch, v)
    if op not in ("query", "batch"):
        raise ProtocolError(
            f"unknown op {op!r} (expected query, batch, stats, ingest or epoch)"
        )
    raw_q = payload.get("q")
    if raw_q is None:
        raise ProtocolError("request is missing its query vector 'q'")
    # A nested array is a batch whatever the op said; a flat vector is a
    # batch only when op == "batch" asked for one explicitly.
    nested = isinstance(raw_q, (list, tuple)) and raw_q and isinstance(raw_q[0], (list, tuple))
    if nested or op == "batch":
        rows = raw_q if nested else [raw_q]
        block = tuple(_finite_vector(row, f"q[{i}]") for i, row in enumerate(rows))
        widths = {len(row) for row in block}
        if len(widths) != 1:
            raise ProtocolError(f"batch rows must share one dimension, got {sorted(widths)}")
        return BatchQueryRequest(q=block, id=rid, sketch=sketch, protocol_version=v)
    return QueryRequest(q=_finite_vector(raw_q, "q"), id=rid, sketch=sketch, protocol_version=v)


def _decode_ingest(payload: dict, rid: object, sketch: str | None, v: int) -> "IngestRequest":
    raw_rows = payload.get("rows")
    raw_delete = payload.get("delete")
    if raw_rows is None and raw_delete is None:
        raise ProtocolError("ingest request must carry 'rows' and/or 'delete'")
    rows: tuple[tuple[float, ...], ...] = ()
    if raw_rows is not None:
        if not isinstance(raw_rows, (list, tuple)) or not raw_rows:
            raise ProtocolError("rows must be a non-empty array of data rows")
        rows = tuple(_finite_vector(row, f"rows[{i}]") for i, row in enumerate(raw_rows))
        if len({len(row) for row in rows}) != 1:
            raise ProtocolError("ingest rows must share one width")
    delete: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    if raw_delete is not None:
        if not isinstance(raw_delete, dict):
            raise ProtocolError("delete must be an object with 'lo' and 'hi' bounds")
        lo = _finite_vector(raw_delete.get("lo"), "delete.lo")
        hi = _finite_vector(raw_delete.get("hi"), "delete.hi")
        if len(lo) != len(hi):
            raise ProtocolError("delete bounds must share one width")
        delete = (lo, hi)
    return IngestRequest(rows=rows, delete=delete, id=rid, sketch=sketch, protocol_version=v)


def decode_response(line: str | bytes) -> Response:
    """Parse one response line into its dataclass (or raise ProtocolError)."""
    payload = _parse_json(line)
    if not isinstance(payload, dict):
        raise ProtocolError(f"response must be a JSON object, got {type(payload).__name__}")
    v = _check_version(payload)
    rid = _request_id(payload)
    ok = payload.get("ok")
    if ok is False:
        error = payload.get("error")
        code = payload.get("code", "internal")
        if not isinstance(error, str):
            raise ProtocolError("error response must carry an 'error' string")
        if code not in ERROR_CODES:
            raise ProtocolError(f"unknown error code {code!r}")
        return ErrorResponse(error=error, code=code, id=rid, protocol_version=v)
    if ok is not True:
        raise ProtocolError("response must carry 'ok': true or false")
    if "answer" in payload:
        answer = payload["answer"]
        if isinstance(answer, bool) or not isinstance(answer, (int, float)):
            raise ProtocolError(f"answer must be a number, got {answer!r}")
        cached = payload.get("cached", False)
        if not isinstance(cached, bool):
            raise ProtocolError(f"cached must be a boolean, got {cached!r}")
        return QueryResponse(
            answer=float(answer),
            cached=cached,
            id=rid,
            sketch=_sketch_name(payload),
            protocol_version=v,
        )
    if "answers" in payload:
        answers = payload["answers"]
        if not isinstance(answers, (list, tuple)):
            raise ProtocolError(f"answers must be an array, got {answers!r}")
        for x in answers:
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise ProtocolError(f"answers components must be numbers, got {x!r}")
        return BatchQueryResponse(
            answers=tuple(float(x) for x in answers),
            id=rid,
            sketch=_sketch_name(payload),
            protocol_version=v,
        )
    if "stats" in payload:
        stats = payload["stats"]
        if not isinstance(stats, dict):
            raise ProtocolError(f"stats must be an object, got {stats!r}")
        return StatsResponse(stats=stats, id=rid, protocol_version=v)
    if "ingest" in payload:
        ingest = payload["ingest"]
        if not isinstance(ingest, dict):
            raise ProtocolError(f"ingest must be an object, got {ingest!r}")
        return IngestResponse(
            ingest=ingest, id=rid, sketch=_sketch_name(payload), protocol_version=v
        )
    if "epoch" in payload:
        epoch = payload["epoch"]
        version = payload.get("data_version", 0)
        for name, value in (("epoch", epoch), ("data_version", version)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ProtocolError(f"{name} must be an integer, got {value!r}")
        return EpochResponse(
            epoch=epoch,
            data_version=version,
            id=rid,
            sketch=_sketch_name(payload),
            protocol_version=v,
        )
    raise ProtocolError("response carries none of answer/answers/stats/ingest/epoch")
