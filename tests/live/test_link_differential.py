"""The one-pass link against the per-frame code it replaced.

``tests/live/reference_link.py`` keeps the previous stream decoder and
the previous decode-age-re-encode forwarding.  Three differentials hold
the new code to them:

(a) any byte string under any chunking decodes to the same
    ``(header, payload)`` sequence, or is refused by both, with the same
    counters and never more than one descriptor's bytes held back;
(b) for every frame the reference accepts, the byte-patched forward is
    exactly what re-encoding the decoded payload would send;
(c) a seeded live cluster emits the same frames query by query, and
    learns the same rules, whichever way its servents forward.
"""

import asyncio
import random
import struct
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.live.cluster import LiveCluster, make_vocabulary
from repro.live.framing import StreamDecoder
from repro.network.protocol import ProtocolError, encode_message
from repro.network.topology import random_regular
from repro.scale.loadgen import CLIENT_ID_BASE, TASK_QUERY, LoadClient
from repro.utils.rng import as_generator
from tests.live.reference_link import (
    ReferenceStreamDecoder,
    use_reference_forwarding,
)

# -- frames, well-formed and not ---------------------------------------------

_utf8 = st.text(st.characters(min_codepoint=1, blacklist_categories=("Cs",)), max_size=12)
_name = _utf8.map(lambda s: s.encode("utf-8"))

_payloads = st.one_of(
    st.tuples(st.just(0x00), st.just(b"")),
    st.tuples(st.just(0x01), st.binary(min_size=14, max_size=14)),
    st.tuples(
        st.just(0x80),
        st.builds(lambda speed, text: speed + text + b"\x00", st.binary(min_size=2, max_size=2), _name),
    ),
    st.tuples(
        st.just(0x81),
        st.builds(
            lambda fixed, name, guid: b"\x01" + fixed + name + b"\x00\x00" + guid,
            st.binary(min_size=18, max_size=18),
            _name,
            st.binary(min_size=16, max_size=16),
        ),
    ),
    # malformed on purpose: lone NULs, wrong lengths, bad types, junk
    st.tuples(st.just(0x80), st.just(b"\x00\x00ab\x00cd\x00")),
    st.tuples(
        st.just(0x81),
        st.just(b"\x01" + bytes(18) + b"a\x00b" + b"\x00\x00" + bytes(16)),
    ),
    st.tuples(st.sampled_from([0x00, 0x01, 0x80, 0x81]), st.binary(max_size=40)),
    st.tuples(st.sampled_from([0x02, 0x42, 0xFF]), st.binary(max_size=8)),
)


@st.composite
def frames(draw):
    ptype, payload = draw(_payloads)
    guid = draw(st.binary(min_size=16, max_size=16))
    ttl, hops = draw(st.integers(0, 255)), draw(st.integers(0, 255))
    length = len(payload)
    if draw(st.integers(0, 19)) == 0:  # a header that lies about its payload
        length = draw(st.sampled_from([0, length + 1, 1 << 20, (1 << 32) - 1]))
    return guid + struct.pack("<BBBI", ptype, ttl, hops, length) + payload


def chunked(draw, stream: bytes) -> list[bytes]:
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=12)))
    edges = [0, *cuts, len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:])]


def feed_or_refuse(decoder, chunk):
    try:
        return decoder.feed(chunk)
    except ProtocolError:
        return None


class TestDecoderDifferential:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_same_descriptors_or_same_refusal_under_any_chunking(self, data):
        stream = b"".join(data.draw(st.lists(frames(), max_size=6)))
        stream += data.draw(st.binary(max_size=30))
        limit = data.draw(st.sampled_from([0, 16, 64, 64 * 1024]))
        reference = ReferenceStreamDecoder(max_payload_length=limit)
        decoder = StreamDecoder(max_payload_length=limit)
        consumed = b""
        for chunk in chunked(data.draw, stream):
            expected = feed_or_refuse(reference, chunk)
            got = feed_or_refuse(decoder, chunk)
            assert (got is None) == (expected is None)
            if got is None:
                return  # both dropped the peer at the same chunk
            assert got == expected
            consumed += b"".join(header.frame for header, _payload in got)
            assert decoder.pending == reference.pending
            assert decoder.pending < 23 + limit
            assert decoder.frames_decoded == reference.frames_decoded
            assert decoder.bytes_consumed == reference.bytes_consumed
        assert consumed == stream[: decoder.bytes_consumed]

    def test_oversized_announcement_refused_before_buffering(self):
        decoder = StreamDecoder(max_payload_length=64)
        header = bytes(16) + struct.pack("<BBBI", 0x80, 7, 0, 65)
        with pytest.raises(ProtocolError):
            decoder.feed(header + b"x" * 10)


class TestPatchDifferential:
    @settings(max_examples=400, deadline=None)
    @given(frame=frames())
    def test_patched_bytes_equal_reencoded_bytes(self, frame):
        try:
            ((header, payload),) = ReferenceStreamDecoder().feed(frame)
        except ValueError:
            return  # refused, or not one whole frame: nothing to forward
        if header.ttl < 1:
            with pytest.raises(ValueError):
                header.aged_frame()
        elif header.hops == 255:
            with pytest.raises(ProtocolError):
                header.aged_frame()
        else:
            assert header.aged_frame() == encode_message(
                header.guid, header.ttl - 1, header.hops + 1, payload
            )


# -- (c): a live cluster, frame for frame -------------------------------------

N_NODES, DEGREE, N_TERMS = 8, 3, 24
CLIENT_NODES = (0, 4)
N_QUERIES = 320


async def drive(*, rule_routed: bool, reference: bool):
    """Run the closed-loop plan; returns (frames per query, totals, states).

    One query is outstanding at a time and the next is issued only when
    no descriptor is in flight, so every node meets its query–reply
    pairs in plan order: the run is a function of the plan alone.
    """
    vocabulary = make_vocabulary(N_TERMS)
    topology = random_regular(N_NODES, DEGREE, rng=as_generator(20060814))
    cluster = LiveCluster(topology, rule_routed=rule_routed)
    if reference:
        use_reference_forwarding(cluster)
    sent: list[tuple[int, int, bytes]] = []
    for node in cluster.nodes:
        def recording_send(conn_id, frame, node=node, send=node._send):
            accepted = send(conn_id, frame)
            if accepted:
                sent.append((node.node_id, conn_id, frame))
            return accepted

        node._send = recording_send
    await cluster.start()
    cluster.stock_partitioned_library(vocabulary)
    replies = []
    clients = [
        LoadClient(
            CLIENT_ID_BASE + i,
            cluster.host,
            cluster.nodes[n].port,
            on_reply=replies.append,
        )
        for i, n in enumerate(CLIENT_NODES)
    ]
    await asyncio.gather(*(client.connect() for client in clients))

    issued = 0

    def settled() -> bool:
        nodes = cluster.nodes
        frames_in = sum(n.stats.frames_in for n in nodes)
        frames_in += len(replies) + sum(c.frames_ignored for c in clients)
        frames_out = sum(n.stats.frames_out for n in nodes) + issued
        return frames_in == frames_out and not any(n.pending_frames for n in nodes)

    rng = random.Random(7)
    per_query = []
    for guid in range(1, N_QUERIES + 1):
        clients[rng.randrange(len(clients))].issue(
            TASK_QUERY, rng.choice(vocabulary), (CLIENT_ID_BASE << 64) + guid
        )
        issued += 1
        while not settled():
            await asyncio.sleep(0)
        per_query.append(Counter(sent))
        sent.clear()
    totals = cluster.totals()
    states = [
        node.servent.counts.state() if rule_routed else None
        for node in cluster.nodes
    ]
    await asyncio.gather(*(client.aclose() for client in clients))
    await cluster.close()
    return per_query, totals, states


@pytest.mark.live
@pytest.mark.parametrize("rule_routed", [False, True], ids=["flood", "rules"])
def test_cluster_emits_the_same_frames_either_way(rule_routed):
    def run(reference):
        return asyncio.run(
            asyncio.wait_for(drive(rule_routed=rule_routed, reference=reference), 120)
        )

    expected_frames, expected_totals, expected_states = run(True)
    frames, totals, states = run(False)
    for i, (got, expected) in enumerate(zip(frames, expected_frames)):
        assert got == expected, f"query {i} travelled differently"
    assert totals == expected_totals
    assert states == expected_states
    assert totals["frames_dropped"] == 0 and totals["protocol_errors"] == 0
    if rule_routed:
        assert totals["queries_rule_routed"] > 0 and any(states)
