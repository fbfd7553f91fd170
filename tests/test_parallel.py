import sys
import threading
import time

import pytest

from tofscan.parallel import map_ordered


@pytest.mark.parametrize("n", [0, 1, 3])
def test_results_in_item_order(workers, n):
    workers(n)
    assert map_ordered(lambda x: x * x, range(50)) == [x * x for x in range(50)]
    assert map_ordered(lambda x: x, []) == []


def test_nested_map_finishes(workers):
    """A map inside an item runs inline instead of waiting on the busy pool."""
    workers(1)
    out = []

    def outer():
        out.append(map_ordered(lambda i: map_ordered(lambda j: 10 * i + j, range(3)), range(4)))

    t = threading.Thread(target=outer)
    t.start()
    t.join(timeout=30)
    assert not t.is_alive()
    assert out == [[[10 * i + j for j in range(3)] for i in range(4)]]


def test_every_item_runs_once_under_contention(workers):
    """More workers than cores and a short switch interval: no item lost or repeated."""
    workers(4)
    ran = []

    def unit(i):
        ran.append(i)
        return sum(range(i % 50))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            ran.clear()
            assert map_ordered(unit, range(200)) == [sum(range(i % 50)) for i in range(200)]
            assert sorted(ran) == list(range(200))
    finally:
        sys.setswitchinterval(interval)


def test_first_failure_in_item_order_is_raised(workers):
    """Item 5 fails first in time, but item 3 comes first in order."""
    workers(1)

    def unit(i):
        if i == 3:
            time.sleep(0.05)
            raise ValueError("item 3")
        if i == 5:
            raise ValueError("item 5")
        return i

    for _ in range(5):
        with pytest.raises(ValueError, match="item 3"):
            map_ordered(unit, range(8))


def test_failure_waits_for_every_started_item(workers):
    """Item 0 fails while item 1 still runs: the map raises only after item 1 ends."""
    workers(1)
    started, ended = set(), set()
    running = threading.Event()  # item 1 has started
    failed = threading.Event()  # item 0 is about to raise

    def unit(i):
        started.add(i)
        try:
            if i == 0:
                running.wait()
                failed.set()
                raise ValueError("item 0")
            if i == 1:
                running.set()
                failed.wait()
                time.sleep(0.1)  # gives a map that did not wait the time to return early
        finally:
            ended.add(i)
        return i

    with pytest.raises(ValueError, match="item 0"):
        map_ordered(unit, range(6))
    assert {0, 1} <= started
    assert ended == started


def test_nested_map_runs_on_its_items_thread(workers):
    """Outer items run on the pool while the caller waits; each inner map runs
    inline on its outer item's thread."""
    workers(2)

    def outer(i):
        return threading.get_ident(), map_ordered(lambda j: threading.get_ident(), range(3))

    caller = threading.get_ident()
    for outer_thread, inner_threads in map_ordered(outer, range(4)):
        assert outer_thread != caller
        assert inner_threads == [outer_thread] * 3
