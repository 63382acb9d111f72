"""Tests for the Message wire type."""

from repro.net import BROADCAST, Message


class TestMessage:
    def test_broadcast_flag(self):
        assert Message(kind="x", src=1, dst=BROADCAST,
                       size_bytes=1).is_broadcast
        assert not Message(kind="x", src=1, dst=7,
                           size_bytes=1).is_broadcast

    def test_forwarded_readdresses_and_counts_hops(self):
        msg = Message(kind="x", src=1, dst=2, size_bytes=9,
                      payload={"a": 1}, created_at=3.5)
        fwd = msg.forwarded(2, 5)
        assert (fwd.src, fwd.dst) == (2, 5)
        assert fwd.hops == msg.hops + 1
        assert fwd.created_at == 3.5
        assert fwd.size_bytes == 9

    def test_forwarded_copies_payload(self):
        msg = Message(kind="x", src=1, dst=2, size_bytes=9,
                      payload={"a": 1})
        fwd = msg.forwarded(2, 5)
        fwd.payload["a"] = 99
        assert msg.payload["a"] == 1
