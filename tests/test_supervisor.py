"""Tests for the process supervisor behind the shard router: the one
backoff rule on a fake clock, observers racing a teardown, and real
child processes through a crash, an expected exit and teardown."""

import os
import signal
import time

import pytest

from repro.service.supervisor import (
    BACKOFF_MAX_S,
    BACKOFF_MIN_S,
    Slot,
    Supervisor,
    start_child,
)


def _child(conn):  # runs in the child: exit with the code it is sent
    os._exit(conn.recv())


def step_until(sup, predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        sup.step()
    return predicate()


class TestBackoffRule:
    def test_doubles_per_loss_up_to_the_cap(self, clock):
        sup = Supervisor([Slot(0)], start=None, clock=clock)
        slot = sup.slots[0]
        delays = []
        for _ in range(8):
            sup.lose(slot)
            delays.append(round(slot.respawn_at - clock(), 6))
        assert delays == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]
        assert BACKOFF_MIN_S == 0.05 and BACKOFF_MAX_S == 2.0

    def test_healthy_resets_and_expected_exits_respawn_at_once(self, clock):
        sup = Supervisor([Slot(0)], start=None, clock=clock)
        slot = sup.slots[0]
        for _ in range(3):
            sup.lose(slot)
        assert slot.backoff_s == pytest.approx(0.4)
        sup.healthy(slot)
        assert slot.backoff_s == BACKOFF_MIN_S
        slot.expected_exit = True
        sup.lose(slot)
        assert slot.respawn_at == clock()
        assert slot.backoff_s == BACKOFF_MIN_S  # a drain is not a crash


class TestObservers:
    def test_live_reads_each_slot_once(self):
        # the owner tears slots down without the observer's lock; a slot
        # cleared right after the observer's first read of it must count
        # as what that read saw, never raise
        class Stub:
            def is_alive(self):
                return True

        class VanishingSlot:
            def __init__(self):
                self._proc = Stub()

            @property
            def proc(self):
                proc, self._proc = self._proc, None
                return proc

        vanishing = VanishingSlot()
        sup = Supervisor([vanishing, Slot(1)], start=None)
        assert sup.live() == [vanishing]
        assert sup.live() == []  # the second read sees the hole


class TestSupervisedChildren:
    def test_crash_expected_exit_and_teardown(self, clock):
        exits = []
        slots = [Slot(0), Slot(1)]
        sup = Supervisor(
            slots, lambda idx: start_child(_child),
            on_exit=lambda s, code: exits.append(
                (s.idx, code, s.expected_exit)
            ),
            clock=clock,
        )
        sup.spawn_due()
        try:
            assert len(sup.live()) == 2
            assert [s.spawns for s in slots] == [1, 1]

            # crash: slot 0's child exits on its own
            crashed = slots[0].proc
            slots[0].conn.send(3)
            assert step_until(sup, lambda: exits)
            assert exits == [(0, 3, False)]
            assert not crashed.is_alive()
            assert slots[0].proc is None and slots[0].conn is None
            assert slots[0].respawn_at == clock() + BACKOFF_MIN_S
            sup.step()  # the clock stands still: the slot stays down
            assert slots[0].proc is None and len(sup.live()) == 1
            clock.advance(BACKOFF_MIN_S)
            sup.step()
            assert slots[0].spawns == 2 and len(sup.live()) == 2

            # expected exit: retired (SIGTERM), respawned without backoff
            retired = slots[1].proc
            sup.retire([slots[1]], grace_s=5.0)
            assert not retired.is_alive()
            assert step_until(sup, lambda: len(exits) == 2)
            assert exits[1] == (1, -signal.SIGTERM, True)
            assert slots[1].spawns == 2 and slots[1].proc is not retired
            assert slots[1].expected_exit is False

            # kill: a second unexpected loss doubles slot 0's backoff
            sup.kill(0)
            assert step_until(sup, lambda: len(exits) == 3)
            assert exits[2] == (0, -signal.SIGKILL, False)
            assert slots[0].respawn_at == clock() + 2 * BACKOFF_MIN_S
            sup.kill(0)  # nothing left to signal: a no-op
        finally:
            procs = [s.proc for s in slots if s.proc is not None]
            conns = [s.conn for s in slots if s.conn is not None]
            sup.close(grace_s=5.0)
        # teardown: SIGTERM within the grace, joined, every pipe closed,
        # and a closed supervisor starts nothing
        assert procs and all(p.exitcode == -signal.SIGTERM for p in procs)
        assert all(c.closed for c in conns)
        assert all(s.proc is None and s.conn is None for s in slots)
        clock.advance(BACKOFF_MAX_S)
        sup.step()
        assert len(sup.live()) == 0
