"""One process supervisor (:class:`Supervisor`) for the portfolio pool's
workers and the shard router's shards."""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing import connection as mp_connection
from typing import Callable

__all__ = ["BACKOFF_MAX_S", "BACKOFF_MIN_S", "Slot", "Supervisor",
           "TICK_S", "start_child"]

BACKOFF_MIN_S = 0.05
BACKOFF_MAX_S = 2.0
#: one step's wait: the crash-detection latency bound when no pipe wakes it
TICK_S = 0.1

try:
    _CTX = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover - non-fork platform
    _CTX = multiprocessing.get_context()


def start_child(target: Callable, *args, name: str | None = None):
    """Start ``target(*args, conn)`` as a daemon child; returns the
    process and the parent end of the duplex pipe ending in ``conn``."""
    parent, child = _CTX.Pipe()
    proc = _CTX.Process(target=target, args=(*args, child), daemon=True,
                        name=name)
    proc.start()
    child.close()
    return proc, parent


class Slot:
    """One supervised process, or the hole where one respawns.  Owners
    subclass it for their own per-slot state; one done with ``conn``
    before its process exits closes it and sets it to ``None``."""

    __slots__ = ("idx", "proc", "conn", "backoff_s", "respawn_at",
                 "expected_exit", "spawns")

    def __init__(self, idx: int) -> None:
        self.idx = idx
        self.proc = None
        self.conn = None
        self.backoff_s = BACKOFF_MIN_S  #: delay after the next crash
        self.respawn_at = 0.0
        self.expected_exit = False  #: the owner asked the process to exit
        self.spawns = 0  #: processes started here (0 while booting)


class Supervisor:
    """Keeps a child process running in each of ``slots``.

    ``start(idx)`` starts slot ``idx``'s process and returns ``(proc,
    conn)``.  The owner calls :meth:`step` from its own thread: it hands
    each slot whose ``conn`` is readable to ``on_message(slot)``, tears
    down each process that exited (kill, join, close) and reports it to
    ``on_exit(slot, exitcode)``, and starts the slot again — at once
    after an expected exit (a drain or a reload), otherwise after one
    backoff rule: 0.05 s, doubling per loss, capped at 2 s, reset by
    :meth:`healthy`.  Every decision reads time from ``clock``, so tests
    step a fake clock instead of sleeping.  Observers read each slot's
    process once: a racing teardown shows them the process or the hole.
    """

    def __init__(self, slots: list, start: Callable[[int], tuple],
                 on_message=None, on_exit=None, clock=time.monotonic):
        self.slots = slots
        self.clock = clock
        self._start = start
        self._on_message = on_message
        self._on_exit = on_exit
        self.closed = False

    def live(self) -> list:
        """The slots whose process is running."""
        return [s for s in self.slots
                if (proc := s.proc) is not None and proc.is_alive()]

    def alive_count(self) -> int:
        return len(self.live())

    def kill(self, idx: int) -> None:
        """SIGKILL slot ``idx``'s process, if any (an unexpected loss)."""
        proc = self.slots[idx].proc
        if proc is not None:
            proc.kill()

    def spawn_due(self) -> None:
        """Start every empty slot whose respawn time has come (at boot,
        all of them)."""
        if self.closed:
            return
        now = self.clock()
        for slot in self.slots:
            if slot.proc is None and now >= slot.respawn_at:
                proc, conn = self._start(slot.idx)
                slot.expected_exit = False
                slot.spawns += 1
                slot.conn, slot.proc = conn, proc

    def step(self, extra=()) -> None:
        """Wait up to :data:`TICK_S` for a sentinel, a slot ``conn`` or
        one of the owner's ``extra`` waitables (the owner drains those),
        then dispatch messages, reap exits and respawn what is due."""
        by_conn = {s.conn: s for s in self.slots if s.conn is not None}
        waitables = [*extra, *by_conn, *(
            p.sentinel for s in self.slots if (p := s.proc) is not None
        )]
        try:
            ready = mp_connection.wait(waitables, timeout=TICK_S)
        except OSError:
            ready = []  # a pipe died mid-wait; the next step re-derives it
        for r in ready:
            slot = by_conn.get(r)
            if slot is not None and slot.conn is r and self._on_message:
                self._on_message(slot)
        for slot in self.slots:
            if (proc := slot.proc) is not None and not proc.is_alive():
                exitcode = self.lose(slot)
                if self._on_exit is not None:
                    self._on_exit(slot, exitcode)
        self.spawn_due()

    def lose(self, slot: Slot) -> int | None:
        """Tear ``slot`` down and schedule its respawn: at once after an
        expected exit, else after its backoff, which then doubles up to
        :data:`BACKOFF_MAX_S`.  Returns the exit code."""
        exitcode = self._teardown(slot)
        slot.respawn_at = self.clock()
        if not slot.expected_exit:
            slot.respawn_at += slot.backoff_s
            slot.backoff_s = min(slot.backoff_s * 2, BACKOFF_MAX_S)
        return exitcode

    def healthy(self, slot: Slot) -> None:
        """A healthy round trip ends any crash loop: reset the backoff."""
        slot.backoff_s = BACKOFF_MIN_S

    def close(self, grace_s: float = 0.0) -> None:
        """Stop every slot for good: :meth:`retire` them all when
        ``grace_s`` > 0, then kill what is left and close the pipes."""
        self.closed = True
        if grace_s > 0:
            self.retire(self.slots, grace_s)
        for slot in self.slots:
            self._teardown(slot)

    def retire(self, slots, grace_s: float) -> None:
        """SIGTERM the processes of ``slots`` as expected exits and kill
        any still running after ``grace_s`` in total; the next step
        reaps them and respawns each at once."""
        procs = []
        for slot in slots:
            proc = slot.proc
            if proc is not None and proc.is_alive():
                slot.expected_exit = True
                proc.terminate()
                procs.append(proc)
        deadline = self.clock() + grace_s
        for proc in procs:
            proc.join(max(0.1, deadline - self.clock()))
            if proc.is_alive():
                proc.kill()

    @staticmethod
    def _teardown(slot: Slot) -> int | None:
        proc, conn = slot.proc, slot.conn
        slot.proc = slot.conn = None
        if conn is not None:
            conn.close()
        if proc is None:
            return None
        if proc.is_alive():
            proc.kill()
        proc.join(1.0)
        return proc.exitcode
