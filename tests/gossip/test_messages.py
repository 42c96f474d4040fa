"""Tests for message records and the observer log."""

import numpy as np

from repro.gossip import MessageLog, ModelMessage


def msg(sender=0, receiver=1, tick=5, size=4):
    return ModelMessage(
        sender=sender,
        receiver=receiver,
        tick=tick,
        payload=np.zeros(size),
    )


class TestModelMessage:
    def test_payload_size(self):
        m = ModelMessage(0, 1, 0, np.zeros(10))
        assert m.payload_size == 10

    def test_frozen(self):
        m = msg()
        try:
            m.sender = 9
            raised = False
        except AttributeError:
            raised = True
        assert raised


class TestMessageLog:
    def test_counts(self):
        log = MessageLog()
        for i in range(5):
            log.record(msg(sender=i % 2))
        assert log.count == 5
        assert log.sent_by(0) == 3
        assert log.sent_by(1) == 2
        assert log.sent_by(7) == 0

    def test_payloads_dropped_by_default(self):
        log = MessageLog()
        log.record(msg())
        assert log.messages == []

    def test_payloads_kept_when_requested(self):
        log = MessageLog(keep_payloads=True)
        log.record(msg())
        assert len(log.messages) == 1

    def test_models_sent_per_node(self):
        log = MessageLog()
        for _ in range(10):
            log.record(msg())
        assert log.models_sent_per_node(5) == 2.0

    def test_models_sent_rejects_bad_n(self):
        import pytest

        with pytest.raises(ValueError):
            MessageLog().models_sent_per_node(0)
