"""Unit tests for fault injection."""

import pytest

from repro.aws.faults import FaultPlan, RequestFaults
from repro.errors import ClientCrash, ServiceUnavailable


class TestFaultPlan:
    def test_inert_plan_logs_without_crashing(self):
        plan = FaultPlan()
        plan.check("step.one")
        plan.check("step.two")
        plan.check("step.one")
        assert plan.log == ["step.one", "step.two", "step.one"]
        assert plan.points_seen == ["step.one", "step.two"]

    def test_crash_at_named_point(self):
        plan = FaultPlan().crash_at("step.two")
        plan.check("step.one")
        with pytest.raises(ClientCrash) as exc:
            plan.check("step.two")
        assert exc.value.point == "step.two"

    def test_crash_at_nth_visit(self):
        plan = FaultPlan().crash_at("loop", visit=3)
        plan.check("loop")
        plan.check("loop")
        with pytest.raises(ClientCrash):
            plan.check("loop")

    def test_crash_fires_once(self):
        plan = FaultPlan().crash_at("p")
        with pytest.raises(ClientCrash):
            plan.check("p")
        plan.check("p")  # disarmed after firing

    def test_crash_at_call_index(self):
        plan = FaultPlan().crash_at_call(3)
        plan.check("a")
        plan.check("b")
        with pytest.raises(ClientCrash) as exc:
            plan.check("c")
        assert exc.value.point == "c"

    def test_disarm(self):
        plan = FaultPlan().crash_at("p").crash_at_call(1)
        plan.disarm()
        plan.check("p")

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan().crash_at("p", visit=0)
        with pytest.raises(ValueError):
            FaultPlan().crash_at_call(0)


class TestRequestFaults:
    def test_fail_next_specific_op(self):
        faults = RequestFaults()
        faults.fail_next("s3", "PUT")
        with pytest.raises(ServiceUnavailable):
            faults.before_request("s3", "PUT")
        faults.before_request("s3", "PUT")  # only armed once
        assert faults.failures_injected == 1

    def test_fail_next_any_op(self):
        faults = RequestFaults()
        faults.fail_next("sqs", times=2)
        with pytest.raises(ServiceUnavailable):
            faults.before_request("sqs", "SendMessage")
        with pytest.raises(ServiceUnavailable):
            faults.before_request("sqs", "ReceiveMessage")
        faults.before_request("sqs", "SendMessage")

    def test_other_services_unaffected(self):
        faults = RequestFaults()
        faults.fail_next("s3", "PUT")
        faults.before_request("simpledb", "PutAttributes")

    def test_validation(self):
        with pytest.raises(ValueError):
            RequestFaults().fail_next("s3", times=0)


class TestEveryStoreOwnsItsPlan:
    def test_arming_one_simulation_does_not_arm_another(self):
        from repro.sim import Simulation
        from tests.conftest import tiny_trace

        armed, other = Simulation("s3+simpledb"), Simulation("s3+simpledb")
        armed.store.faults.crash_at("a2.store.done")
        stored = other.store.store_trace(tiny_trace())
        assert other.store.faults.log.count("a2.store.done") == stored
        assert armed.store.faults.log == []

    def test_each_daemon_owns_its_plan(self):
        from repro.sim import Simulation

        first, second = Simulation().store, Simulation().store
        assert first.faults is not second.faults
        assert first.commit_daemon.faults is not second.commit_daemon.faults
        before = first.commit_daemon
        first.restart()
        assert first.commit_daemon.faults is not before.faults


class TestArmingCountsFromTheArmingCall:
    def test_a_point_already_visited_still_fires(self):
        from repro.sim import Simulation
        from tests.conftest import tiny_trace

        events = tiny_trace()
        sim = Simulation("s3+simpledb+sqs")
        sim.store.store(events[0])
        sim.store.faults.crash_at("a3.log.begin")
        with pytest.raises(ClientCrash) as exc:
            sim.store.store(events[1])
        assert exc.value.point == "a3.log.begin"

    def test_counts_restart_at_arming(self):
        plan = FaultPlan()
        for point in ("a", "b", "a"):
            plan.check(point)
        plan.crash_at("a", visit=2)
        plan.check("a")
        with pytest.raises(ClientCrash):
            plan.check("a")
        plan.crash_at_call(2)
        plan.check("x")
        with pytest.raises(ClientCrash) as exc:
            plan.check("y")
        assert exc.value.point == "y"
