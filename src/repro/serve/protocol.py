"""The serve wire protocol: newline-delimited JSON, strictly typed.

One frame per line; every frame is a JSON object whose ``type`` field
selects a registered message dataclass.  The codec is deliberately
strict — an unknown type, an unknown field, a missing required field,
or a wrong scalar shape raises :class:`ProtocolError`, which the
daemon answers with a structured ``error`` frame *without* dropping
the connection: a malformed frame can cost the client its request,
never the daemon its read loop.

Determinism contract (DESIGN.md §15): every mutating message carries
``at_s``, the simulated time the client wants it to land.  The daemon
quantizes that to the first tick boundary ≥ ``at_s`` and applies
mutations in ``(at_s, seq)`` order, where ``seq`` is the arrival
sequence number echoed in the ``ack``.  A scripted client therefore
produces exactly one canonical mutation schedule, and the served run
is bit-identical to an in-process replay of the same script.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import typing

__all__ = [
    "PROTOCOL_VERSION",
    "SCHEMA_VERSION",
    "TELEMETRY_STREAMS",
    "ProtocolError",
    "Hello", "Welcome", "Subscribe", "Subscribed", "Unsubscribe",
    "SetDemand", "InjectFault", "SetCap", "SwapPolicy",
    "Run", "RunDone", "GetResult", "Result", "GetStats", "Stats",
    "Ack", "Error", "Telemetry", "Bye",
    "MESSAGE_TYPES",
    "encode", "decode", "decode_line",
    "to_jsonable", "result_fingerprint",
]

#: Wire protocol generation; Welcome advertises it, Hello asserts it.
PROTOCOL_VERSION = 1

#: Version stamp for exported artifacts (RunReport serve section,
#: ``bench --json`` rows) so archived artifacts are comparable.
SCHEMA_VERSION = 2

#: Streams a client may subscribe to.
TELEMETRY_STREAMS = ("power", "pue", "served", "health")


class ProtocolError(ValueError):
    """A frame violated the protocol; ``code`` is machine-readable."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


MESSAGE_TYPES: dict[str, type] = {}


def _register(type_name: str):
    def wrap(cls):
        cls.TYPE = type_name
        MESSAGE_TYPES[type_name] = cls
        return cls
    return wrap


# ----------------------------------------------------------------------
# Session lifecycle
# ----------------------------------------------------------------------
@_register("hello")
@dataclasses.dataclass(frozen=True)
class Hello:
    """Client's opening frame."""

    client: str = ""
    protocol: int = PROTOCOL_VERSION


@_register("welcome")
@dataclasses.dataclass(frozen=True)
class Welcome:
    """Daemon's reply: who it is and what it is simulating."""

    protocol: int
    schema_version: int
    tick_s: float
    scenario: dict


@_register("bye")
@dataclasses.dataclass(frozen=True)
class Bye:
    """Polite close from either side."""


# ----------------------------------------------------------------------
# Telemetry subscriptions
# ----------------------------------------------------------------------
@_register("subscribe")
@dataclasses.dataclass(frozen=True)
class Subscribe:
    """Subscribe to telemetry streams, one frame per ``every_ticks``."""

    streams: list
    every_ticks: int = 1


@_register("subscribed")
@dataclasses.dataclass(frozen=True)
class Subscribed:
    streams: list
    every_ticks: int


@_register("unsubscribe")
@dataclasses.dataclass(frozen=True)
class Unsubscribe:
    pass


@_register("telemetry")
@dataclasses.dataclass(frozen=True)
class Telemetry:
    """One tick's readings for the subscribed streams."""

    t_s: float
    data: dict


# ----------------------------------------------------------------------
# Mutations (all carry ``at_s``; all are acked with a decision id)
# ----------------------------------------------------------------------
@_register("set_demand")
@dataclasses.dataclass(frozen=True)
class SetDemand:
    """Retarget the offered demand (servers' worth of work)."""

    at_s: float
    work: float


@_register("inject_fault")
@dataclasses.dataclass(frozen=True)
class InjectFault:
    """Inject one incident from the existing fault domains."""

    at_s: float
    kind: str
    duration_s: float
    target: typing.Any = None
    severity: float = 1.0


@_register("set_cap")
@dataclasses.dataclass(frozen=True)
class SetCap:
    """Retarget the facility power cap."""

    at_s: float
    budget_w: float


@_register("swap_policy")
@dataclasses.dataclass(frozen=True)
class SwapPolicy:
    """Hot-swap the manager's forecasting policy."""

    at_s: float
    forecaster: str
    params: dict = dataclasses.field(default_factory=dict)


@_register("ack")
@dataclasses.dataclass(frozen=True)
class Ack:
    """Mutation accepted: when it will land and under which decision."""

    op: str
    seq: int
    applied_at_s: float
    decision_id: typing.Any = None


# ----------------------------------------------------------------------
# Run control and results
# ----------------------------------------------------------------------
@_register("run")
@dataclasses.dataclass(frozen=True)
class Run:
    """Advance the simulation ``ticks`` tick boundaries."""

    ticks: int


@_register("run_done")
@dataclasses.dataclass(frozen=True)
class RunDone:
    now_s: float
    ticks: int


@_register("get_result")
@dataclasses.dataclass(frozen=True)
class GetResult:
    pass


@_register("result")
@dataclasses.dataclass(frozen=True)
class Result:
    """The run's CoSimResult plus its canonical fingerprint."""

    fingerprint: str
    result: dict


@_register("get_stats")
@dataclasses.dataclass(frozen=True)
class GetStats:
    pass


@_register("stats")
@dataclasses.dataclass(frozen=True)
class Stats:
    stats: dict


@_register("error")
@dataclasses.dataclass(frozen=True)
class Error:
    """Structured failure; the connection stays up."""

    code: str
    message: str


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
def encode(msg) -> bytes:
    """One message → one JSON line (sorted keys, trailing newline)."""
    payload = {"type": msg.TYPE}
    for field in dataclasses.fields(msg):
        payload[field.name] = getattr(msg, field.name)
    return (json.dumps(payload, sort_keys=True, allow_nan=True)
            + "\n").encode()


def decode(payload: dict):
    """Validated dict → message; raises :class:`ProtocolError`."""
    if not isinstance(payload, dict):
        raise ProtocolError("bad-frame", "frame must be a JSON object")
    type_name = payload.get("type")
    cls = MESSAGE_TYPES.get(type_name)
    if cls is None:
        raise ProtocolError("unknown-type",
                            f"unknown message type {type_name!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in payload.items():
        if key == "type":
            continue
        if key not in fields:
            raise ProtocolError(
                "unknown-field", f"{type_name}: unknown field {key!r}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ProtocolError("missing-field",
                            f"{type_name}: {exc}") from None


def decode_line(line: bytes | str):
    """One wire line → message; raises :class:`ProtocolError`."""
    text = line.decode() if isinstance(line, bytes) else line
    if not text.strip():
        raise ProtocolError("empty-frame", "blank line")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad-json", f"not JSON: {exc}") from None
    return decode(payload)


# ----------------------------------------------------------------------
# Result codec: CoSimResult ↔ canonical JSON
# ----------------------------------------------------------------------
def to_jsonable(obj):
    """Recursively lower dataclasses/enums/tuples to JSON shapes."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        return obj.value
    if hasattr(obj, "_asdict"):  # NamedTuple
        return {k: to_jsonable(v) for k, v in obj._asdict().items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(to_jsonable(x) for x in obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "item") and not isinstance(obj, (int, float, str)):
        return obj.item()  # numpy scalar
    return obj


def result_fingerprint(result) -> str:
    """Canonical byte-stable fingerprint of a CoSimResult.

    Sorted-keys JSON of the recursive codec.  NaN fields (an SLA with
    no completed requests reports NaN latency) serialize to the ``NaN``
    token, which compares equal as *text* even though the floats do
    not — which is exactly what the bit-identity gate needs.
    """
    return json.dumps(to_jsonable(result), sort_keys=True, allow_nan=True)
