"""Fixtures for the distributed-execution tests."""

from __future__ import annotations

import asyncio
import threading

import pytest


class BackgroundService:
    """Run a ResultsService on its own event-loop thread.

    A sibling of the harness in ``tests/service/conftest.py`` (conftest
    modules are not importable across test packages); keyword arguments go
    to :class:`ResultsService`, so the distributed tests can shrink worker
    and scheduler timeouts.  ``service`` is the live ResultsService (its
    ``board`` lets a test queue work as the scheduler would).
    """

    def __init__(self, workers=None, **service_kwargs) -> None:
        self.workers = workers
        self.service_kwargs = service_kwargs
        self.url = None
        self.service = None
        self._loop = None
        self._stop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        from repro.service.app import ResultsService

        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        service = self.service = ResultsService(
            workers=self.workers, **self.service_kwargs
        )
        host, port = await service.start("127.0.0.1", 0)
        self.url = f"http://{host}:{port}"
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await service.stop()

    def __enter__(self) -> "BackgroundService":
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise RuntimeError("service did not start within 10s")
        return self

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)


@pytest.fixture
def background_service():
    """Factory for live in-process services (context managers)."""
    return BackgroundService
