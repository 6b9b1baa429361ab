"""Optional uvloop acceleration for the live stack.

uvloop is a drop-in libuv-backed event loop that roughly doubles asyncio
socket throughput — exactly the hot path a saturation benchmark
measures — but the repo takes no new hard dependencies, so it is used
*only when already importable*: :func:`install_uvloop` installs the
policy and reports which implementation actually runs, and every
consumer (``live-node --uvloop``, the cluster workers, the load
generator) records that string in its output so a benchmark result is
never ambiguous about the loop it ran on.
"""

from __future__ import annotations

import asyncio

__all__ = ["install_uvloop"]


def install_uvloop(enabled: bool) -> str:
    """Install the uvloop event-loop policy when asked *and* available.

    Returns the name of the implementation that will actually serve new
    event loops: ``"uvloop"`` on success, ``"asyncio"`` otherwise (not
    requested, or uvloop missing — the silent-fallback contract, so the
    same command line works on hosts with and without it).
    """
    if not enabled:
        return "asyncio"
    try:
        import uvloop
    except ImportError:
        return "asyncio"
    asyncio.set_event_loop_policy(uvloop.EventLoopPolicy())
    return "uvloop"
