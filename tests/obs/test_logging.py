"""Tests for structured logging, ambient identity and rate limiting."""

import io
import json
import logging

import pytest

from repro.obs.logging import (
    RATE_LIMIT_KEYS,
    RateLimiter,
    bind_node,
    bind_peer,
    configure_logging,
    get_logger,
    node_id_var,
)


@pytest.fixture(autouse=True)
def _restore_logging():
    yield
    configure_logging(level="warning")


def _capture(level="info", json_lines=False):
    stream = io.StringIO()
    configure_logging(level=level, json_lines=json_lines, stream=stream)
    return stream


class TestConfigureLogging:
    def test_level_filters(self):
        stream = _capture(level="warning")
        log = get_logger("t")
        log.info("quiet")
        log.warning("loud")
        out = stream.getvalue()
        assert "quiet" not in out
        assert "loud" in out

    def test_repeated_calls_do_not_stack_handlers(self):
        stream = _capture()
        configure_logging(level="info", stream=stream)
        configure_logging(level="info", stream=stream)
        get_logger("t").info("once")
        assert stream.getvalue().count("once") == 1

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError):
            configure_logging(level="chatty")

    def test_does_not_propagate_to_root(self):
        root_stream = io.StringIO()
        root_handler = logging.StreamHandler(root_stream)
        logging.getLogger().addHandler(root_handler)
        try:
            _capture()
            get_logger("t").warning("contained")
            assert "contained" not in root_stream.getvalue()
        finally:
            logging.getLogger().removeHandler(root_handler)


class TestGetLogger:
    def test_namespaced_under_repro(self):
        assert get_logger("live.node").name == "repro.live.node"
        assert get_logger("repro.cli").name == "repro.cli"


class TestJsonFormatter:
    def _record(self, log, stream):
        line = stream.getvalue().strip().splitlines()[-1]
        return json.loads(line)

    def test_renders_core_fields_and_extras(self):
        stream = _capture(json_lines=True)
        get_logger("t").warning("boom", extra={"peer": 3, "reason": "x"})
        doc = self._record(None, stream)
        assert doc["level"] == "warning"
        assert doc["logger"] == "repro.t"
        assert doc["msg"] == "boom"
        assert doc["peer"] == 3
        assert doc["reason"] == "x"
        assert isinstance(doc["ts"], float)

    def test_ambient_node_and_peer_ids(self):
        stream = _capture(json_lines=True)
        with bind_node(7), bind_peer(2):
            get_logger("t").warning("hello")
        doc = self._record(None, stream)
        assert doc["node"] == 7
        assert doc["peer"] == 2

    def test_no_identity_outside_binding(self):
        stream = _capture(json_lines=True)
        get_logger("t").warning("bare")
        doc = self._record(None, stream)
        assert "node" not in doc
        assert "peer" not in doc

    def test_exception_included(self):
        stream = _capture(json_lines=True)
        try:
            raise RuntimeError("nope")
        except RuntimeError:
            get_logger("t").exception("failed")
        doc = self._record(None, stream)
        assert "RuntimeError: nope" in doc["exc"]

    def test_unserialisable_extra_falls_back_to_repr(self):
        stream = _capture(json_lines=True)
        get_logger("t").warning("obj", extra={"thing": object()})
        doc = self._record(None, stream)
        assert "object object" in doc["thing"]


class TestPlainFormatter:
    def test_identity_and_fields_inline(self):
        stream = _capture()
        with bind_node(4):
            get_logger("t").warning("dial failed", extra={"target": "x:1"})
        line = stream.getvalue()
        assert "node=4" in line
        assert "dial failed" in line
        assert "target=x:1" in line


class TestBindNode:
    def test_nesting_restores_previous_value(self):
        assert node_id_var.get() is None
        with bind_node(1):
            with bind_node(2):
                assert node_id_var.get() == 2
            assert node_id_var.get() == 1
        assert node_id_var.get() is None


class TestRateLimiter:
    def test_first_call_allowed_with_zero_suppressed(self):
        limiter = RateLimiter(5.0, clock=lambda: 0.0)
        assert limiter.allow("k") == 0

    def test_within_interval_suppressed_then_counted(self):
        now = [0.0]
        limiter = RateLimiter(5.0, clock=lambda: now[0])
        assert limiter.allow("k") == 0
        assert limiter.allow("k") is None
        assert limiter.allow("k") is None
        now[0] = 6.0
        assert limiter.allow("k") == 2

    def test_keys_are_independent(self):
        limiter = RateLimiter(5.0, clock=lambda: 0.0)
        assert limiter.allow("a") == 0
        assert limiter.allow("b") == 0

    def test_eviction_bounds_key_table(self):
        now = [0.0]
        limiter = RateLimiter(5.0, clock=lambda: now[0])
        for i in range(RATE_LIMIT_KEYS):
            now[0] = float(i)
            limiter.allow(i)
        now[0] = float(RATE_LIMIT_KEYS)
        limiter.allow("new")  # evicts 0, the oldest
        assert len(limiter._last) == RATE_LIMIT_KEYS
        assert 0 not in limiter._last and "new" in limiter._last

    def test_zero_interval_always_allows(self):
        limiter = RateLimiter(0.0, clock=lambda: 0.0)
        assert limiter.allow("k") == 0
        assert limiter.allow("k") == 0

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            RateLimiter(-1.0)
