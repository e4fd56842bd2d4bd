"""Request coalescing: identical in-flight work shares one computation.

Under load, the common arrival pattern is many clients asking for the
*same* evaluation at once.  A naive server would dispatch every one of
them to the worker pool and solve the same model N times; the
:class:`Coalescer` dispatches the first (the **leader**) and parks the
other N-1 (**followers**) on the leader's future, so exactly one solve
runs and every caller receives the same digest-verified result.

Keys are any hashable value; the service keys on the request kind and
the resolved spec (``(kind, *resolve_spec(spec))``, see
:func:`repro.serve.worker.resolve_spec`), so every spelling of one model
coalesces.  Failures propagate to every waiter and the key is cleared
either way, so a crashed leader never wedges a key.
"""

from __future__ import annotations

import asyncio
from collections.abc import Awaitable, Callable, Hashable
from typing import Any


class Coalescer:
    """Shares the result of one in-flight computation per key."""

    def __init__(self) -> None:
        self._inflight: dict[Hashable, asyncio.Future] = {}

    def __len__(self) -> int:
        return len(self._inflight)

    def leader_count(self) -> int:
        """Number of computations currently in flight."""
        return len(self._inflight)

    def is_inflight(self, key: Hashable) -> bool:
        return key in self._inflight

    async def run(
        self, key: Hashable, factory: Callable[[], Awaitable[Any]]
    ) -> tuple[Any, bool]:
        """``(result, coalesced)`` — run ``factory`` or join the leader.

        ``coalesced`` is True when this call joined an already-running
        computation instead of starting its own.  Exceptions raised by
        the leader's factory propagate to the leader and every follower.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            # shield: a cancelled follower must not cancel the shared
            # computation out from under the other waiters.
            return await asyncio.shield(existing), True

        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            value = await factory()
        except BaseException as error:
            if not future.done():
                future.set_exception(error)
            # Awaited by followers (or nobody): never let an unretrieved
            # exception warning fire for the coalescing future itself.
            future.exception()
            raise
        else:
            if not future.done():
                future.set_result(value)
            return value, False
        finally:
            if self._inflight.get(key) is future:
                del self._inflight[key]
