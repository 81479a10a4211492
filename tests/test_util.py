"""The worker rule and the ordered map that loops of independent items run on."""

import threading
import time

import pytest

from conemult import util


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_ordered_map_keeps_item_order_at_every_worker_count(workers):
    threads = threading.active_count()
    # the first ``workers`` items each hold their worker until all have
    # one, so every worker takes an item
    gate = threading.Barrier(workers, timeout=10)
    seen = []

    def square(worker, item):
        seen.append((worker, threading.get_ident()))
        if item < workers:
            gate.wait()
        return item * item

    assert util._ordered_map(square, range(20), workers) == \
        [i * i for i in range(20)]
    assert {w for w, _ in seen} == set(range(workers))
    assert len({ident for _, ident in seen}) == workers
    assert (0, threading.get_ident()) in seen
    # no worker thread outlives the map
    assert threading.active_count() == threads


def test_ordered_map_starts_no_more_threads_than_items(monkeypatch):
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(util.threading, "Thread", Counted)
    assert util._ordered_map(lambda w, x: -x, [1, 2], 8) == [-1, -2]
    assert util._ordered_map(lambda w, x: -x, [], 8) == []
    assert util._ordered_map(lambda w, x: -x, [1, 2, 3], 1) == [-1, -2, -3]
    assert len(started) == 1


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_ordered_map_raises_the_first_failure_once_every_thread_stopped(
        workers):
    threads = threading.active_count()

    def failing(worker, item):
        if item == 3:
            time.sleep(0.05)   # a later item fails first in time
            raise ValueError("item 3")
        if item == 6:
            raise ValueError("item 6")
        return item

    with pytest.raises(ValueError, match="item 3"):
        util._ordered_map(failing, range(10), workers)
    assert threading.active_count() == threads


def test_worker_count_stays_within_the_cpus_and_the_memory_cap(monkeypatch):
    # the rule alone: no thread is started here
    for cpus in range(1, 9):
        monkeypatch.setattr(util.os, "sched_getaffinity",
                            lambda pid, n=cpus: set(range(n)))
        for log_points in range(10, 23):
            points = 2 ** log_points
            count = util._worker_count(points, util.LINE_POINT_BYTES)
            assert 1 <= count <= cpus
            assert (count - 1) * util.LINE_POINT_BYTES * points \
                <= util.EXTRA_WORKER_BYTES
            if points < util.PARALLEL_MIN_POINTS:
                assert count == 1
    # a line at the CLI's cap of 2^22 points holds 192 MiB: no extra worker
    assert util._worker_count(2 ** 22, util.LINE_POINT_BYTES) == 1
    monkeypatch.setattr(util.os, "sched_getaffinity", lambda pid: {0, 1})
    assert util._worker_count(util.PARALLEL_MIN_POINTS,
                              util.LINE_POINT_BYTES) == 2
    monkeypatch.delattr(util.os, "sched_getaffinity")
    monkeypatch.setattr(util.os, "cpu_count", lambda: None)
    assert util._worker_count(2 ** 17, util.LINE_POINT_BYTES) == 1
