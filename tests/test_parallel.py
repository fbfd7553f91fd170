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
