"""Unit tests for contact links and transfers."""

import pytest

from tests.helpers import make_message
from repro.errors import ConfigurationError, SimulationError
from repro.network.link import Link
from repro.sim.engine import Engine


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def link(engine):
    return Link(engine, 0, 1, speed=100.0, distance=50.0)


class TestConstruction:
    def test_endpoints_canonicalised(self, engine):
        link = Link(engine, 5, 2, speed=10.0)
        assert link.pair == (2, 5)

    def test_peer_of(self, link):
        assert link.peer_of(0) == 1
        assert link.peer_of(1) == 0
        with pytest.raises(ConfigurationError):
            link.peer_of(9)

    def test_self_link_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            Link(engine, 1, 1, speed=10.0)

    def test_invalid_speed_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            Link(engine, 0, 1, speed=0.0)

    def test_transfer_time(self, link):
        assert link.transfer_time(make_message(size=250)) == pytest.approx(2.5)


class TestTransfers:
    def test_transfer_completes_after_duration(self, engine, link):
        done = []
        message = make_message(size=100)  # 1 second at 100 B/s
        link.send(0, message, on_complete=lambda t: done.append(engine.now))
        engine.run_until(0.5)
        assert done == []
        engine.run_until(1.0)
        assert done == [1.0]

    def test_transfers_in_one_direction_are_serial(self, engine, link):
        done = []
        link.send(0, make_message(size=100),
                  on_complete=lambda t: done.append(("a", engine.now)))
        link.send(0, make_message(size=100),
                  on_complete=lambda t: done.append(("b", engine.now)))
        engine.run_until(3.0)
        assert done == [("a", 1.0), ("b", 2.0)]

    def test_directions_are_independent(self, engine, link):
        done = []
        link.send(0, make_message(size=100),
                  on_complete=lambda t: done.append(("fwd", engine.now)))
        link.send(1, make_message(size=100),
                  on_complete=lambda t: done.append(("rev", engine.now)))
        engine.run_until(1.0)
        assert sorted(done) == [("fwd", 1.0), ("rev", 1.0)]

    def test_busy_and_queued(self, engine, link):
        link.send(0, make_message(size=100), on_complete=lambda t: None)
        link.send(0, make_message(size=100), on_complete=lambda t: None)
        assert link.busy(0)
        assert link.queued(0) == 1
        assert not link.busy(1)


class TestClosure:
    def test_close_aborts_in_flight_transfer(self, engine, link):
        completed, aborted = [], []
        link.send(
            0, make_message(size=1_000),
            on_complete=completed.append, on_abort=aborted.append,
        )
        engine.run_until(2.0)
        casualties = link.close()
        engine.run_until(20.0)
        assert completed == []
        assert len(aborted) == 1
        assert casualties[0].aborted

    def test_close_aborts_queued_transfers(self, engine, link):
        aborted = []
        link.send(0, make_message(size=1_000),
                  on_complete=lambda t: None, on_abort=aborted.append)
        link.send(0, make_message(size=1_000),
                  on_complete=lambda t: None, on_abort=aborted.append)
        link.close()
        assert len(aborted) == 2

    def test_send_on_closed_link_rejected(self, engine, link):
        link.close()
        with pytest.raises(SimulationError):
            link.send(0, make_message(size=10), on_complete=lambda t: None)

    def test_close_is_idempotent(self, engine, link):
        link.send(0, make_message(size=100), on_complete=lambda t: None)
        first = link.close()
        second = link.close()
        assert len(first) == 1
        assert second == []

    def test_completion_callback_closing_link_is_safe(self, engine, link):
        # A delivery may exhaust a token balance and close the contact.
        link.send(0, make_message(size=100),
                  on_complete=lambda t: link.close())
        link.send(0, make_message(size=100), on_complete=lambda t: None)
        engine.run_until(5.0)
        assert link.closed


class TestCloseReentrancy:
    """Regressions: on_abort callbacks that re-enter the link during
    close() must fail cleanly, never corrupt state or double-fire."""

    def test_abort_callback_calling_close_is_noop(self, engine, link):
        aborted = []

        def on_abort(transfer):
            aborted.append(transfer)
            assert link.close() == []  # already closed: no new casualties

        link.send(0, make_message(size=1_000),
                  on_complete=lambda t: None, on_abort=on_abort)
        casualties = link.close()
        assert len(casualties) == 1
        assert aborted == casualties

    def test_abort_callback_calling_send_fails_cleanly(self, engine, link):
        errors = []

        def on_abort(transfer):
            try:
                link.send(0, make_message(size=10),
                          on_complete=lambda t: None)
            except SimulationError as exc:
                errors.append(exc)

        link.send(0, make_message(size=1_000),
                  on_complete=lambda t: None, on_abort=on_abort)
        link.close()
        assert len(errors) == 1
        assert link.queued(0) == 0 and not link.busy(0)

    def test_abort_callbacks_never_double_fire(self, engine, link):
        fired = []
        # Three transfers: one in flight, two queued. The first abort
        # callback re-enters close(); every callback must still fire
        # exactly once.
        for tag in ("a", "b", "c"):
            link.send(
                0, make_message(size=1_000),
                on_complete=lambda t: None,
                on_abort=lambda t, tag=tag: (fired.append(tag),
                                             link.close()),
            )
        link.close()
        engine.run_until(60.0)
        assert fired == ["a", "b", "c"]

    def test_state_cleared_before_callbacks(self, engine, link):
        observed = []

        def on_abort(transfer):
            observed.append((link.busy(0), link.queued(0)))

        link.send(0, make_message(size=1_000),
                  on_complete=lambda t: None, on_abort=on_abort)
        link.send(0, make_message(size=1_000),
                  on_complete=lambda t: None, on_abort=on_abort)
        link.close()
        assert observed == [(False, 0), (False, 0)]

    def test_close_records_reason(self, engine, link):
        transfer = link.send(0, make_message(size=1_000),
                             on_complete=lambda t: None)
        link.close(reason="churn")
        assert transfer.aborted and transfer.abort_reason == "churn"

    def test_no_completion_after_close_during_abort(self, engine, link):
        completed = []
        link.send(0, make_message(size=100),
                  on_complete=completed.append,
                  on_abort=lambda t: link.close())
        link.close()
        engine.run_until(10.0)  # the cancelled completion must not fire
        assert completed == []


class TestFaultHook:
    def test_faulted_transfer_aborts_with_reason(self, engine):
        link = Link(engine, 0, 1, speed=100.0,
                    fault_hook=lambda t: "loss")
        completed, aborted = [], []
        transfer = link.send(0, make_message(size=100),
                             on_complete=completed.append,
                             on_abort=aborted.append)
        engine.run_until(1.0)
        assert completed == []
        assert aborted == [transfer]
        assert transfer.aborted and transfer.abort_reason == "loss"
        assert not link.closed  # faults do not tear the contact down

    def test_queue_continues_past_faulted_transfer(self, engine):
        verdicts = iter(["corruption", None])
        link = Link(engine, 0, 1, speed=100.0,
                    fault_hook=lambda t: next(verdicts))
        done = []
        link.send(0, make_message(size=100),
                  on_complete=lambda t: done.append("first"),
                  on_abort=lambda t: done.append("first-aborted"))
        link.send(0, make_message(size=100),
                  on_complete=lambda t: done.append("second"))
        engine.run_until(5.0)
        assert done == ["first-aborted", "second"]

    def test_clean_verdict_completes_normally(self, engine):
        link = Link(engine, 0, 1, speed=100.0, fault_hook=lambda t: None)
        transfer = link.send(0, make_message(size=100),
                             on_complete=lambda t: None)
        engine.run_until(1.0)
        assert transfer.completed and not transfer.aborted

    def test_abort_callback_can_resend_after_fault(self, engine):
        # The retransmission path: the link stays open after a loss, so
        # the abort callback may immediately queue the copy again.
        verdicts = iter(["loss"])
        link = Link(engine, 0, 1, speed=100.0,
                    fault_hook=lambda t: next(verdicts, None))
        delivered = []

        def on_abort(transfer):
            link.send(transfer.sender, transfer.message,
                      on_complete=lambda t: delivered.append(engine.now))

        link.send(0, make_message(size=100),
                  on_complete=lambda t: delivered.append(engine.now),
                  on_abort=on_abort)
        engine.run_until(5.0)
        assert delivered == [2.0]
