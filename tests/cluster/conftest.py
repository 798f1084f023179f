"""Fixtures shared by the cluster tests."""

import signal

import pytest


@pytest.fixture(autouse=True)
def watchdog():
    """Per-test SIGALRM timeout — a hung cluster must fail one test only."""
    if not hasattr(signal, "SIGALRM"):
        pytest.skip("platform lacks SIGALRM; watchdog unavailable")

    def on_alarm(signum, frame):
        raise TimeoutError("cluster test exceeded its per-test timeout")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
