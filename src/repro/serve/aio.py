"""Asyncio front door for the serving stack.

:class:`AsyncServer` wraps any :class:`~repro.serve.frontend.Server`
(thread- or process-backed) so one event loop can hold tens of thousands
of in-flight requests as coroutines::

    server = ProcServer(model, example, workers=4).start()
    aserver = AsyncServer(server)
    results = await asyncio.gather(*(aserver.submit(x) for x in requests))

``submit`` bridges the server's ``concurrent.futures.Future`` to an
awaitable via :func:`asyncio.wrap_future` — no polling, no extra thread
per request.  The one care point is **block-mode backpressure**: a server
built with ``queue_limit`` and ``overload="block"`` parks the *submitter*
until queue space frees, which would wedge the event loop; for such
servers the enqueue itself is pushed onto the loop's default executor so
the coroutine (not the loop) waits.  ``reject``/``shed_oldest`` servers
and unbounded queues enqueue inline — submit is then just a queue append
plus validation.

Exceptions surface exactly as in the sync API: awaiting a submit raises
``DeadlineExceeded`` / ``ServerOverloaded`` / the batch's failure, and a
cancelled coroutine cancels the underlying request future (dropped at
dispatch if still queued).
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from repro.serve.frontend import Server

__all__ = ["AsyncServer"]

# ``asyncio`` is imported where a coroutine runs — whoever awaits one has it
# loaded already — not here: ``import repro.serve`` would pay 6 MiB and 25 ms
# for it in every process, servers that never see an event loop included.


class AsyncServer:
    """Awaitable facade over a (started) :class:`Server`.

    Also an async context manager: ``async with AsyncServer(server) as s``
    starts the server on entry (idempotent) and stops it on exit without
    blocking the event loop (``stop`` drains in the default executor).
    """

    def __init__(self, server: Server) -> None:
        self._server = server
        # Block-mode submits park the caller; keep them off the loop.
        self._blocking_submit = (
            server._queue_limit is not None and server._overload == "block"
        )

    @property
    def server(self) -> Server:
        return self._server

    async def submit(self, *batch, timeout: Optional[float] = None) -> np.ndarray:
        """Submit one request and await its result (an owned copy)."""
        import asyncio

        if self._blocking_submit:
            loop = asyncio.get_running_loop()
            future = await loop.run_in_executor(
                None,
                functools.partial(self._server.submit, *batch, timeout=timeout),
            )
        else:
            future = self._server.submit(*batch, timeout=timeout)
        return await asyncio.wrap_future(future)

    __call__ = submit

    async def stats(self) -> dict:
        return self._server.stats()

    async def health(self) -> dict:
        return self._server.health()

    async def stop(self, drain: bool = True,
                   timeout: Optional[float] = 30.0) -> None:
        """Stop the wrapped server without blocking the event loop."""
        import asyncio

        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, functools.partial(self._server.stop, drain=drain,
                                    timeout=timeout)
        )

    async def __aenter__(self) -> "AsyncServer":
        self._server.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop(drain=exc_type is None)
