"""The one place ruledmin starts a thread. It imports no numpy, so a module
that loads none may use it."""

import threading


def on_two_threads(tasks) -> list:
    """[task() for task in tasks], on this thread and one helper thread.

    This thread runs the first task and claims the next ones from the front
    of the list, and the helper runs the last and claims from the back,
    under a lock, until the two meet. So each thread runs a contiguous run
    of tasks, and a thread that runs slower, or on a busy core, runs fewer.
    A list of one task starts no thread. No task after a failed one is
    claimed, so every task before the first failure runs, and once the
    helper is joined that failure is raised: what the serial loop raises.
    A task may only write into what its caller allocated.
    """
    if len(tasks) < 2:
        return [task() for task in tasks]
    results, failed, lock = [None] * len(tasks), {}, threading.Lock()
    ends = [1, len(tasks) - 1]  # the unclaimed tasks: the first and the last are claimed

    def run(i, front):
        while True:
            try:
                results[i] = tasks[i]()
            except BaseException as exc:  # noqa: BLE001  (raised below, after the join)
                failed[i] = exc
            with lock:  # the next task from this thread's end, unless an earlier one failed
                i = ends[0] if front else ends[1] - 1
                if ends[0] == ends[1] or (failed and min(failed) < i):
                    return
                if front:
                    ends[0] += 1
                else:
                    ends[1] -= 1

    helper = threading.Thread(target=run, args=(len(tasks) - 1, False))
    helper.start()
    try:
        run(0, True)
    finally:
        helper.join()
    if failed:
        raise failed[min(failed)]
    return results
