"""Thread → asyncio bridge: blocking delivery into an event loop.

The crawl stack reports through synchronous callbacks (the crawl's
``progress`` hook and ``shard_listener``), invoked on whatever worker
thread ran the shard.  The crawl *service* lives on an asyncio event
loop in a different thread.  :class:`BlockingLoopBridge` is the seam
between the two worlds: it runs a coroutine on the loop **and waits for
it**, so the calling worker thread blocks until the loop-side consumer
has accepted the item — which is how queue backpressure propagates all
the way back into the crawl hot loop.

It does not import the service package — it is generic obs plumbing
that any async front-end can reuse.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable


class BlockingLoopBridge:
    """Run a coroutine on the loop and block the caller until it finishes.

    The synchronous face of loop-side backpressure: a worker thread
    calls :meth:`submit` with a coroutine (say ``queue.put(event)``);
    the thread does not proceed until the loop-side consumer accepted
    the item.  Exceptions raised by the coroutine propagate to the
    calling thread.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    def submit(self, coroutine: Awaitable[Any]) -> Any:
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result()
