"""The names ``benchmarks/perf`` reaches for, exercised as it uses them.

The benchmark's files may not change with the code they measure, so this
is the contract: every import, attribute and call shape here is one the
live workloads rely on.
"""

import asyncio

from repro.live import LiveCluster, StreamDecoder, StreamingRuleServent, make_vocabulary
from repro.core.streaming import StreamingRules
from repro.network.protocol import QueryHitMessage, QueryMessage, encode_message
from repro.network.servent import MonitorServent, Servent
from repro.network.topology import Topology
from repro.scale.loadgen import CLIENT_ID_BASE, TASK_QUERY, LoadClient


def test_stream_decoder_feeds_header_payload_pairs():
    query = QueryMessage(min_speed=0, search="kw0001")
    chunk = b"".join(encode_message(i + 1, 7, 0, query) for i in range(3))
    pairs = StreamDecoder().feed(chunk)
    assert [(h.guid, p) for h, p in pairs] == [(1, query), (2, query), (3, query)]


def test_handle_frame_and_monitor_override():
    query = QueryMessage(min_speed=0, search="kw0001")
    hit = QueryHitMessage(
        port=6346, ip="10.0.0.1", speed=1000, file_index=0, file_size=1 << 20,
        file_name="kw0001 track0.mp3", servent_guid=100_001,
    )
    flood = Servent(1)
    rule = StreamingRuleServent(
        2, rules=StreamingRules(min_support_count=2, window_pairs=512), top_k=2
    )
    monitor = MonitorServent(3)
    for servent in (flood, rule, monitor):
        for conn in range(4):
            servent.connect(conn)
    for i in range(4):
        rule.handle_frame(0, encode_message(100 + i, 7, 0, query))
        rule.handle_frame(1 + i % 2, encode_message(100 + i, 7, 0, hit))
    frame = encode_message(9, 7, 0, query)
    assert sorted(conn for conn, _f in flood.handle_frame(0, frame)) == [1, 2, 3]
    assert sorted(conn for conn, _f in rule.handle_frame(0, frame)) == [1, 2]
    assert rule.handle_frame(1, encode_message(9, 7, 0, hit)) == [
        (0, encode_message(9, 6, 1, hit))
    ]
    # MonitorServent logs in its handle_message override, then forwards
    assert len(monitor.handle_frame(0, frame)) == 3
    assert [record.guid for record in monitor.query_log] == [9]


def test_cluster_and_load_client_surface():
    async def body():
        vocabulary = make_vocabulary(4)
        cluster = LiveCluster(Topology(2, [(0, 1)]), rule_routed=True)
        await cluster.start()
        cluster.stock_partitioned_library(vocabulary)
        replies = []
        client = LoadClient(
            CLIENT_ID_BASE, cluster.host, cluster.nodes[0].port,
            on_reply=replies.append,
        )
        await client.connect()
        assert client.peer_id == 0
        client.issue(TASK_QUERY, vocabulary[1], (CLIENT_ID_BASE << 64) + 1)
        nodes = cluster.nodes

        def settled():
            frames_in = sum(n.stats.frames_in for n in nodes)
            frames_in += len(replies) + client.frames_ignored
            frames_out = sum(n.stats.frames_out for n in nodes) + 1
            return frames_in == frames_out and not any(
                n.pending_frames for n in nodes
            )

        while not settled():
            await asyncio.sleep(0)
        assert replies == [(CLIENT_ID_BASE << 64) + 1]
        totals = cluster.totals()
        assert totals["frames_out"] == 3  # forward, hit, hit relayed to client
        assert totals["queries_flooded"] == 2 and totals["frames_dropped"] == 0
        await client.aclose()
        await cluster.close()

    asyncio.run(asyncio.wait_for(body(), 30))
