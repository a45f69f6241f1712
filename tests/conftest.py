"""Shared test configuration: a per-test hang watchdog.

The serving suite exercises queues, worker threads, and shutdown races; a
regression there can deadlock instead of failing.  CI installs
``pytest-timeout`` and every run passes ``--timeout`` (see ci.yml), but the
tier-1 command must also be hang-proof on bare environments where
``pytest-timeout`` is not installed — so this conftest arms a
``faulthandler``-based watchdog per test: if a single test exceeds
``REPRO_TEST_TIMEOUT`` seconds (default 300), every thread's traceback is
dumped and the process exits non-zero, failing the run in minutes instead
of hanging it for hours.

When ``pytest-timeout`` is importable it owns the job (richer reporting,
per-test markers) and the fallback stays disarmed.

The ``hold_workers`` fixture parks a server's workers so a test can queue
a burst behind them and see it coalesce without relying on timing.
"""

import contextlib
import faulthandler
import os
import threading

import pytest

try:
    import pytest_timeout  # noqa: F401

    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False

_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "300"))


@pytest.fixture(scope="session", autouse=True)
def _suite_kernel_cache(tmp_path_factory):
    """One kernel cache for the whole run (unless the caller named one).

    Sessions never wait for the compiler: a session whose kernels are in
    neither the memo nor the cache serves on its numpy steps until they are.
    With one cache per run, only the first session of each structure starts
    that way; every later one — worker processes included — adopts its
    compiled stages at construction, so the whole serving suite exercises
    the compiled arm.  It also keeps the suite out of ``~/.cache``.
    """
    if "REPRO_KERNEL_CACHE" in os.environ:
        yield
        return
    os.environ["REPRO_KERNEL_CACHE"] = str(tmp_path_factory.mktemp("kernels"))
    yield
    del os.environ["REPRO_KERNEL_CACHE"]


if not _HAVE_PYTEST_TIMEOUT and _TIMEOUT > 0:

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(item, nextitem):
        # exit=True: a wedged test cannot be un-wedged from a signal-safe
        # handler, so dump every thread's stack and kill the process —
        # the CI job (and the tier-1 gate) then fails fast and loud.
        faulthandler.dump_traceback_later(_TIMEOUT, exit=True)
        try:
            yield
        finally:
            faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def _no_compile_outlives_its_test():
    """Compiles run off the request path, on a thread the next test would
    share the process with: a test that reads process-wide counters (page
    faults, threads, ``codegen_stats()``) must not see the previous test's
    compiler at work."""
    yield
    from repro.codegen import wait_for_compiles

    wait_for_compiles(120)


@contextlib.contextmanager
def _hold_workers(server, *parked_request):
    """Park every worker of ``server`` inside its pool's ``serve`` until the
    block exits, so whatever the block submits is queued as one burst.

    One ``parked_request`` is submitted per worker, each only after the
    previous one holds its worker (so no two share a batch).  Yields their
    futures.  On exit the workers are released and collect the burst in
    whole-request batches of up to ``max_batch_size`` samples — coalescing
    that depends on no timing.
    """
    release = threading.Event()
    entered = threading.Semaphore(0)
    originals = [(pool, pool.serve) for pool in server.pools]

    def wrap(serve):
        def held(batch, out=None):
            entered.release()
            release.wait(timeout=60)
            return serve(batch, out)
        return held

    for pool, serve in originals:
        pool.serve = wrap(serve)
    try:
        parked = []
        for _ in range(server.workers):
            parked.append(server.submit(*parked_request))
            assert entered.acquire(timeout=60), "a worker never picked up"
        yield parked
    finally:
        release.set()
        for pool, serve in originals:
            pool.serve = serve


@pytest.fixture
def hold_workers():
    """``with hold_workers(server, x) as parked:`` — see :func:`_hold_workers`."""
    return _hold_workers
