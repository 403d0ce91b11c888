"""No-progress watchdog for the asyncio workloads.

A run whose feed stops making progress (a shard consumer that died, a worker
that never acks) must end and be counted, not hang: the watchdog cancels the
guarded coroutine when a progress counter stands still for ``stall_s``.
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Callable, TypeVar

T = TypeVar("T")


class Stalled(Exception):
    """The guarded coroutine made no progress for the stall window."""


async def guarded(
    work: Awaitable[T], progress: Callable[[], int], stall_s: float
) -> T:
    """Await ``work``; raise :class:`Stalled` if ``progress()`` stops moving."""
    task = asyncio.ensure_future(work)
    last = progress()
    moved = time.perf_counter()
    try:
        while True:
            done, _ = await asyncio.wait({task}, timeout=0.25)
            if done:
                return task.result()
            now = time.perf_counter()
            current = progress()
            if current != last:
                last, moved = current, now
            elif now - moved > stall_s:
                raise Stalled(f"no progress for {stall_s:.0f} s (counter at {current})")
    finally:
        if not task.done():
            task.cancel()
            await asyncio.wait({task}, timeout=5.0)
