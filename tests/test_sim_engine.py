"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import DeadlockError, SimulationError

from oracles.sim_channel import FifoChannel, MemoryStream
from oracles.sim_engine import Environment


class TestEvents:
    def test_timeout_advances_clock(self):
        env = Environment()
        log = []

        def proc():
            yield env.timeout(5)
            log.append(env.now)
            yield env.timeout(3)
            log.append(env.now)

        env.process(proc(), "p")
        assert env.run() == 8
        assert log == [5, 8]

    def test_zero_delay_timeout(self):
        env = Environment()
        hits = []

        def proc():
            yield env.timeout(0)
            hits.append(env.now)

        env.process(proc(), "p")
        env.run()
        assert hits == [0]

    def test_event_double_trigger_rejected(self):
        env = Environment()
        ev = env.event("x")
        ev.trigger()
        with pytest.raises(SimulationError):
            ev.trigger()

    def test_late_callback_runs_immediately(self):
        env = Environment()
        ev = env.event("x")
        ev.trigger()
        env.run()
        hits = []
        ev.add_callback(lambda e: hits.append(True))
        assert hits == [True]

    def test_callback_after_processing_sees_the_value(self):
        env = Environment()

        def worker():
            yield env.timeout(2)
            return "payload"

        proc = env.process(worker(), "w")
        env.run()
        seen = []
        proc.completion.add_callback(lambda e: seen.append(e.value))
        assert seen == ["payload"]
        # further callbacks keep running immediately, in call order
        proc.completion.add_callback(lambda e: seen.append("again"))
        assert seen == ["payload", "again"]

    def test_all_of_waits_for_all(self):
        env = Environment()
        done = []

        def worker(d):
            yield env.timeout(d)

        procs = [env.process(worker(d), f"w{d}") for d in (3, 7, 5)]

        def waiter():
            yield env.all_of([p.completion for p in procs])
            done.append(env.now)

        env.process(waiter(), "waiter")
        env.run()
        assert done == [7]

    def test_all_of_empty_fires_immediately(self):
        env = Environment()
        hits = []

        def proc():
            yield env.all_of([])
            hits.append(env.now)

        env.process(proc(), "p")
        env.run()
        assert hits == [0]

    def test_all_of_empty_generator_input(self):
        env = Environment()
        combined = env.all_of(ev for ev in [])
        env.run()
        assert combined.triggered and combined.processed

    def test_all_of_with_already_fired_events(self):
        env = Environment()
        fired = [env.event(f"e{i}") for i in range(3)]
        for ev in fired:
            ev.trigger()
        env.run()
        assert all(ev.processed for ev in fired)
        hits = []

        def waiter():
            yield env.all_of(fired)
            hits.append(env.now)

        env.process(waiter(), "w")
        env.run()
        assert hits == [0]

    def test_all_of_mixing_fired_and_pending_events(self):
        env = Environment()
        done = env.event("done")
        done.trigger()
        env.run()
        hits = []

        def worker():
            yield env.timeout(4)

        proc = env.process(worker(), "w")

        def waiter():
            yield env.all_of([done, proc.completion])
            hits.append(env.now)

        env.process(waiter(), "waiter")
        env.run()
        assert hits == [4]

    def test_completion_value(self):
        env = Environment()

        def worker():
            yield env.timeout(2)
            return 42

        p = env.process(worker(), "w")
        results = []

        def reader():
            value = yield p.completion
            results.append(value)

        env.process(reader(), "r")
        env.run()
        assert results == [42]

    def test_bad_yield_rejected(self):
        env = Environment()

        def proc():
            yield "not an event"

        env.process(proc(), "p")
        with pytest.raises(SimulationError):
            env.run()

    def test_run_until(self):
        env = Environment()

        def proc():
            for _ in range(10):
                yield env.timeout(10)

        env.process(proc(), "p")
        assert env.run(until=35) == 35
        assert env.now == 35

    def test_run_until_resumes_without_losing_events(self):
        env = Environment()
        hits = []

        def proc():
            for _ in range(10):
                yield env.timeout(10)
                hits.append(env.now)

        env.process(proc(), "p")
        assert env.run(until=35) == 35
        assert hits == [10, 20, 30]
        # the t=40 event must still be on the heap: resuming completes
        # the run instead of deadlocking on the dropped wakeup
        assert env.run() == 100
        assert hits == [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]

    def test_run_until_fires_events_at_the_horizon(self):
        env = Environment()
        hits = []

        def proc():
            yield env.timeout(5)
            hits.append(env.now)
            yield env.timeout(5)
            hits.append(env.now)

        env.process(proc(), "p")
        assert env.run(until=10) == 10
        assert hits == [5, 10]

    def test_run_until_repeated_resume_matches_unbounded_run(self):
        def build():
            env = Environment()
            log = []

            def worker(delay, count):
                for _ in range(count):
                    yield env.timeout(delay)
                    log.append((env.now, delay))

            env.process(worker(3, 5), "w3")
            env.process(worker(7, 3), "w7")
            return env, log

        env_a, log_a = build()
        env_a.run()
        env_b, log_b = build()
        for horizon in (4, 9, 13, 100):
            env_b.run(until=horizon)
        assert log_b == log_a

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1)


class TestDeadlockDetection:
    def test_waiting_forever_is_deadlock(self):
        env = Environment()
        never = env.event("never")

        def proc():
            yield never

        env.process(proc(), "stuck")
        with pytest.raises(DeadlockError) as exc:
            env.run()
        assert "stuck" in str(exc.value)

    def test_clean_termination_is_not_deadlock(self):
        env = Environment()

        def proc():
            yield env.timeout(1)

        env.process(proc(), "ok")
        env.run()  # no exception

    def test_deadlock_message_counts_and_sorts_blocked(self):
        env = Environment()
        never = env.event("never")

        def proc():
            yield never

        # registration order is deliberately unsorted
        for name in ("zeta", "alpha", "mid"):
            env.process(proc(), name)
        with pytest.raises(DeadlockError) as exc:
            env.run()
        message = str(exc.value)
        assert "3 blocked processes" in message
        assert message.index("alpha") < message.index("mid") < message.index("zeta")
        assert exc.value.blocked == sorted(exc.value.blocked)

    def test_deadlock_message_singular(self):
        env = Environment()

        def proc():
            yield env.event("never")

        env.process(proc(), "only")
        with pytest.raises(DeadlockError, match=r"1 blocked process: only"):
            env.run()


class TestFifoChannel:
    def test_put_then_get(self):
        env = Environment()
        ch = FifoChannel(env, 2, "c")
        got = []

        def producer():
            yield ch.put("a")
            yield ch.put("b")

        def consumer():
            yield env.timeout(1)
            yield ch.when_nonempty()
            got.append(ch.pop())
            yield ch.when_nonempty()
            got.append(ch.pop())

        env.process(producer(), "p")
        env.process(consumer(), "c")
        env.run()
        assert got == ["a", "b"]

    def test_put_blocks_when_full(self):
        env = Environment()
        ch = FifoChannel(env, 1, "c")
        times = []

        def producer():
            yield ch.put(1)
            times.append(env.now)  # accepted immediately
            yield ch.put(2)
            times.append(env.now)  # accepted only after the pop at t=5

        def consumer():
            yield env.timeout(5)
            yield ch.when_nonempty()
            ch.pop()

        env.process(producer(), "p")
        env.process(consumer(), "c")
        env.run()
        assert times == [0, 5]

    def test_get_blocks_until_data(self):
        env = Environment()
        ch = FifoChannel(env, 4, "c")
        when = []

        def producer():
            yield env.timeout(7)
            yield ch.put("x")

        def consumer():
            yield ch.when_nonempty()
            ch.pop()
            when.append(env.now)

        env.process(producer(), "p")
        env.process(consumer(), "c")
        env.run()
        assert when == [7]

    def test_capacity_one_lockstep(self):
        env = Environment()
        ch = FifoChannel(env, 1, "c")
        order = []

        def producer():
            for i in range(3):
                yield ch.put(i)
                order.append(("put", i, env.now))

        def consumer():
            for _ in range(3):
                yield ch.when_nonempty()
                order.append(("pop", ch.pop(), env.now))
                yield env.timeout(2)

        env.process(producer(), "p")
        env.process(consumer(), "c")
        env.run()
        assert ch.max_occupancy == 1
        assert ch.total_put == ch.total_popped == 3

    def test_two_consumers_rejected(self):
        env = Environment()
        ch = FifoChannel(env, 1, "c")
        ch.when_nonempty()
        with pytest.raises(SimulationError):
            ch.when_nonempty()

    def test_pop_empty_rejected(self):
        env = Environment()
        ch = FifoChannel(env, 1, "c")
        with pytest.raises(SimulationError):
            ch.pop()

    def test_capacity_must_be_positive(self):
        env = Environment()
        with pytest.raises(ValueError):
            FifoChannel(env, 0, "c")


class TestMemoryStream:
    def test_always_ready_without_event(self):
        env = Environment()
        mem = MemoryStream(env, None, "m")
        hits = []

        def proc():
            yield mem.when_nonempty()
            mem.pop()
            hits.append(env.now)

        env.process(proc(), "p")
        env.run()
        assert hits == [0]

    def test_waits_for_ready_event(self):
        env = Environment()
        ready = env.event("ready")
        mem = MemoryStream(env, ready, "m")
        hits = []

        def producer():
            yield env.timeout(9)
            ready.trigger()

        def consumer():
            yield mem.when_nonempty()
            mem.pop()
            hits.append(env.now)

        env.process(producer(), "p")
        env.process(consumer(), "c")
        env.run()
        assert hits == [9]
