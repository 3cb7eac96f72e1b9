"""The two-thread task runner against the serial loop it stands for."""

import sys
import threading

import pytest

from ruledmin._threads import on_two_threads


def _fails(i):
    def task():
        raise ValueError(f"task {i}")

    return task


def test_results_come_back_in_list_order_and_the_first_task_runs_here(thread_starts):
    runs = {}

    def task(i):
        runs[i] = threading.current_thread()
        return i * i

    assert on_two_threads([lambda i=i: task(i) for i in range(50)]) == [i * i for i in range(50)]
    assert sorted(runs) == list(range(50))
    assert runs[0] is threading.current_thread()
    assert len(thread_starts) == 1 and runs[49] is thread_starts[0]
    assert not thread_starts[0].is_alive()


def test_one_task_starts_no_thread(thread_starts):
    assert on_two_threads([lambda: 7]) == [7]
    assert on_two_threads([]) == []
    with pytest.raises(ValueError, match="task 0"):
        on_two_threads([_fails(0)])
    assert thread_starts == []


def test_the_first_failure_in_list_order_is_raised_after_the_helper_is_joined(thread_starts):
    for _ in range(20):  # whichever of tasks 1 and 3 fails first
        thread_starts.clear()
        with pytest.raises(ValueError, match="task 1"):
            on_two_threads([lambda: 0, _fails(1), lambda: 2, _fails(3)])
        assert len(thread_starts) == 1 and not thread_starts[0].is_alive()


@pytest.mark.parametrize("failing,ran", [(0, {0, 5}), (4, {0, 1, 2, 3, 4, 5})], ids=["here", "helper"])
def test_no_task_after_the_first_failure_is_claimed(monkeypatch, failing, ran):
    """The helper runs the last task until this thread is joining it, so a
    failure here is recorded before the helper claims again; a failure on
    the helper leaves every task before it to run."""
    joining = threading.Event()

    class Joined(threading.Thread):
        def join(self, timeout=None):
            joining.set()
            super().join(timeout)

    monkeypatch.setattr(threading, "Thread", Joined)
    runs = []

    def task(i):
        runs.append(i)
        if i == 5 and failing == 0:
            assert joining.wait(timeout=60)
        if i == failing:
            raise ValueError(f"task {i}")

    with pytest.raises(ValueError, match=f"task {failing}"):
        on_two_threads([lambda i=i: task(i) for i in range(6)])
    assert set(runs) == ran and len(runs) == len(ran)


def test_tasks_are_run_once_each_under_a_short_switch_interval():
    """The two threads' ends meet without a task lost or run twice, with
    four callers at once (eight threads on two cores) switching every 1 us."""
    runs = []
    results = {}

    def caller(c):
        def task(i):
            runs.append((c, i))
            return c * 1000 + i

        results[c] = on_two_threads([lambda i=i: task(i) for i in range(500)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(c,)) for c in range(4)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert sorted(runs) == [(c, i) for c in range(4) for i in range(500)]
    assert results == {c: [c * 1000 + i for i in range(500)] for c in range(4)}
