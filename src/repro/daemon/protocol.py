"""Wire protocol of the control socket: line-delimited JSON.

One request per line, one response per line, strictly ordered per
connection:

    {"id": 1, "cmd": "routes-dump", "args": {"tenant": "r1", "table": "fib"}}
    {"id": 1, "ok": true, "result": {...}}

Prefixes cross the wire as lossless ``[value, length, width]`` triples
(display strings are a *client-side* rendering concern — width-6 test
tables and width-128 IPv6 round-trip unchanged). Nexthops are
``[key, name]`` pairs; DROP is the reserved key ``-1``.

Everything here is pure and synchronous: the codec is shared by the
server, the ctl client, and the test suite, and none of it may touch
sockets, clocks, or files.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional

from repro.core.downloads import DownloadKind, FibDownload
from repro.net.nexthop import DROP, Nexthop
from repro.net.prefix import Prefix
from repro.net.update import RouteUpdate, UpdateKind

#: Bumped on any incompatible change to the framing or the codecs.
PROTOCOL_VERSION = 1

#: Hard cap on one request/response line; longer frames are refused
#: before JSON parsing (control traffic is small — bulk data flows
#: through ``routes-dump`` style responses the *server* composes).
MAX_LINE_BYTES = 8 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed frame or an out-of-contract field."""


# -- value codecs --------------------------------------------------------


def encode_prefix(prefix: Prefix) -> list[int]:
    return [prefix.value, prefix.length, prefix.width]


def decode_prefix(raw: object) -> Prefix:
    if (
        not isinstance(raw, list)
        or len(raw) != 3
        or not all(isinstance(part, int) for part in raw)
    ):
        raise ProtocolError(f"prefix must be a [value, length, width] triple: {raw!r}")
    try:
        return Prefix(raw[0], raw[1], raw[2])
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def encode_nexthop(nexthop: Nexthop) -> list[object]:
    return [nexthop.key, nexthop.name]


def decode_nexthop(raw: object) -> Nexthop:
    if (
        not isinstance(raw, list)
        or len(raw) != 2
        or not isinstance(raw[0], int)
        or not isinstance(raw[1], str)
    ):
        raise ProtocolError(f"nexthop must be a [key, name] pair: {raw!r}")
    if raw[0] == DROP.key:
        return DROP
    try:
        return Nexthop(raw[0], raw[1])
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def encode_update(update: RouteUpdate) -> dict[str, object]:
    body: dict[str, object] = {
        "kind": update.kind.value,
        "prefix": encode_prefix(update.prefix),
        "ts": update.timestamp,
    }
    if update.nexthop is not None:
        body["nexthop"] = encode_nexthop(update.nexthop)
    return body


def decode_update(raw: object) -> RouteUpdate:
    if not isinstance(raw, Mapping):
        raise ProtocolError(f"update must be an object: {raw!r}")
    kind = raw.get("kind")
    prefix = decode_prefix(raw.get("prefix"))
    timestamp = raw.get("ts", 0.0)
    if not isinstance(timestamp, (int, float)):
        raise ProtocolError(f"update ts must be a number: {timestamp!r}")
    if kind == UpdateKind.ANNOUNCE.value:
        return RouteUpdate.announce(
            prefix, decode_nexthop(raw.get("nexthop")), float(timestamp)
        )
    if kind == UpdateKind.WITHDRAW.value:
        return RouteUpdate.withdraw(prefix, float(timestamp))
    raise ProtocolError(f"unknown update kind: {kind!r}")


def encode_download(download: FibDownload) -> dict[str, object]:
    body: dict[str, object] = {
        "op": download.kind.value,
        "prefix": encode_prefix(download.prefix),
    }
    if download.nexthop is not None:
        body["nexthop"] = encode_nexthop(download.nexthop)
    return body


def decode_download(raw: object) -> FibDownload:
    if not isinstance(raw, Mapping):
        raise ProtocolError(f"download must be an object: {raw!r}")
    op = raw.get("op")
    prefix = decode_prefix(raw.get("prefix"))
    if op == DownloadKind.INSERT.value:
        return FibDownload.insert(prefix, decode_nexthop(raw.get("nexthop")))
    if op == DownloadKind.DELETE.value:
        return FibDownload.delete(prefix)
    raise ProtocolError(f"unknown download op: {op!r}")


def encode_table(table: Mapping[Prefix, Nexthop]) -> list[list[object]]:
    """A routes-dump body: ``[[prefix-triple, nexthop-pair], ...]`` sorted
    by prefix so two dumps of equal tables compare equal as JSON."""
    return [
        [encode_prefix(prefix), encode_nexthop(table[prefix])]
        for prefix in sorted(table)
    ]


def decode_table(raw: object) -> dict[Prefix, Nexthop]:
    if not isinstance(raw, list):
        raise ProtocolError(f"table must be a list of rows: {raw!r}")
    table: dict[Prefix, Nexthop] = {}
    for row in raw:
        if not isinstance(row, list) or len(row) != 2:
            raise ProtocolError(f"table row must be [prefix, nexthop]: {row!r}")
        table[decode_prefix(row[0])] = decode_nexthop(row[1])
    return table


# -- framing -------------------------------------------------------------


def encode_line(payload: Mapping[str, Any]) -> bytes:
    """One frame: compact JSON, newline-terminated, UTF-8."""
    return (
        json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes) -> dict[str, Any]:
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_LINE_BYTES} bytes")
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("frame must be a JSON object")
    return payload


def request_line(request_id: int, cmd: str, args: Mapping[str, Any]) -> bytes:
    return encode_line({"id": request_id, "cmd": cmd, "args": dict(args)})


def ok_response(request_id: Optional[int], result: Any) -> bytes:
    return encode_line({"id": request_id, "ok": True, "result": result})


def error_response(request_id: Optional[int], message: str) -> bytes:
    return encode_line({"id": request_id, "ok": False, "error": message})
