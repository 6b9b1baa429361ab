"""Structured logging for the repro stack.

Built on :mod:`logging` so standard tooling (handlers, levels, pytest's
``caplog``) keeps working, with three additions the live daemon needs:

* **JSON-lines output** — :class:`JsonFormatter` renders one JSON object
  per record (``ts``, ``level``, ``logger``, ``msg`` plus any extra
  fields), so a cluster's interleaved node logs stay machine-parseable;
* **ambient identity** — :func:`bind_node` / :func:`bind_peer` put the
  current overlay node/peer id in :mod:`contextvars`; every record
  emitted from that context (including from asyncio tasks created inside
  it, which inherit the context snapshot) carries ``node``/``peer``
  without threading ids through call signatures;
* **rate limiting** — :class:`RateLimiter` bounds per-key log volume so
  a peer spraying malformed frames cannot turn the protocol-error path
  into a log flood; suppressed counts are reported when a key re-opens.

Logs go to *stderr* by default: stdout stays reserved for the CLI's
report tables, per the repo's report-on-stdout convention.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import logging
import sys
import time
from typing import Iterator

__all__ = [
    "JsonFormatter",
    "PlainFormatter",
    "RateLimiter",
    "bind_node",
    "bind_peer",
    "configure_logging",
    "get_logger",
    "node_id_var",
    "peer_id_var",
]

#: Ambient overlay identity for the current execution context.
node_id_var: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "repro_node_id", default=None
)
peer_id_var: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "repro_peer_id", default=None
)

_ROOT_LOGGER = "repro"

#: record attributes that are logging machinery, not user fields.
_STANDARD_ATTRS = frozenset(
    (
        "args", "asctime", "created", "exc_info", "exc_text", "filename",
        "funcName", "levelname", "levelno", "lineno", "message", "module",
        "msecs", "msg", "name", "pathname", "process", "processName",
        "relativeCreated", "stack_info", "taskName", "thread", "threadName",
    )
)


@contextlib.contextmanager
def bind_node(node_id: int | None) -> Iterator[None]:
    """Set the ambient node id for the duration of the block."""
    token = node_id_var.set(node_id)
    try:
        yield
    finally:
        node_id_var.reset(token)


@contextlib.contextmanager
def bind_peer(peer_id: int | None) -> Iterator[None]:
    """Set the ambient peer id for the duration of the block."""
    token = peer_id_var.set(peer_id)
    try:
        yield
    finally:
        peer_id_var.reset(token)


def _extra_fields(record: logging.LogRecord) -> dict:
    return {
        key: value
        for key, value in record.__dict__.items()
        if key not in _STANDARD_ATTRS and not key.startswith("_")
    }


class JsonFormatter(logging.Formatter):
    """One JSON object per line; extra= fields become top-level keys."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "msg": record.getMessage(),
        }
        node = node_id_var.get()
        if node is not None:
            payload["node"] = node
        peer = peer_id_var.get()
        if peer is not None:
            payload["peer"] = peer
        payload.update(_extra_fields(record))
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, default=repr, separators=(",", ":"))


class PlainFormatter(logging.Formatter):
    """Human-oriented single line: time, level, identity, message, fields."""

    def format(self, record: logging.LogRecord) -> str:
        parts = [
            time.strftime("%H:%M:%S", time.localtime(record.created)),
            record.levelname[0],
            record.name,
        ]
        node = node_id_var.get()
        if node is not None:
            parts.append(f"node={node}")
        peer = peer_id_var.get()
        if peer is not None:
            parts.append(f"peer={peer}")
        parts.append(record.getMessage())
        fields = _extra_fields(record)
        if fields:
            parts.append(
                " ".join(f"{k}={v}" for k, v in sorted(fields.items()))
            )
        line = " ".join(str(p) for p in parts)
        if record.exc_info:
            line += "\n" + self.formatException(record.exc_info)
        return line


def configure_logging(
    *,
    level: str | int = "warning",
    json_lines: bool = False,
    stream=None,
) -> logging.Logger:
    """(Re)configure the ``repro`` logger tree; idempotent.

    Returns the root ``repro`` logger.  Handlers installed by earlier
    calls are replaced, so tests and repeated CLI invocations in one
    process do not stack duplicate outputs.
    """
    if isinstance(level, str):
        resolved = logging.getLevelName(level.upper())
        if not isinstance(resolved, int):
            raise ValueError(f"unknown log level {level!r}")
        level = resolved
    root = logging.getLogger(_ROOT_LOGGER)
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonFormatter() if json_lines else PlainFormatter())
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False
    return root


def get_logger(name: str) -> logging.Logger:
    """A logger under the shared ``repro`` namespace."""
    if name == _ROOT_LOGGER or name.startswith(_ROOT_LOGGER + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_LOGGER}.{name}")


#: keys a :class:`RateLimiter` remembers before it evicts the oldest
RATE_LIMIT_KEYS = 1024


class RateLimiter:
    """Per-key token gate: at most one allowed record per ``interval``.

    ``allow(key)`` returns the number of calls suppressed since the key
    last passed (0 on first pass), or ``None`` when the call should be
    suppressed.  Typical use::

        suppressed = limiter.allow(("protocol_error", peer_id))
        if suppressed is not None:
            log.warning("bad frame", extra={"suppressed": suppressed})

    The clock is injectable for tests; keys are evicted lazily once the
    table grows past :data:`RATE_LIMIT_KEYS` (oldest last-allowed first)
    so a churn of one-shot keys cannot grow memory without bound.
    """

    def __init__(
        self,
        interval: float = 5.0,
        *,
        clock=time.monotonic,
    ) -> None:
        if interval < 0:
            raise ValueError("interval must be >= 0")
        self.interval = interval
        self._clock = clock
        self._last: dict[object, float] = {}
        self._suppressed: dict[object, int] = {}

    def allow(self, key: object) -> int | None:
        now = self._clock()
        last = self._last.get(key)
        if last is not None and now - last < self.interval:
            self._suppressed[key] = self._suppressed.get(key, 0) + 1
            return None
        if len(self._last) >= RATE_LIMIT_KEYS and key not in self._last:
            oldest = min(self._last, key=self._last.get)
            del self._last[oldest]
            self._suppressed.pop(oldest, None)
        self._last[key] = now
        return self._suppressed.pop(key, 0)
