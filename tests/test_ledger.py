import json
import math
import re

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from gridtrade.ledger import (
    AlreadyFinalized,
    Contract,
    ContractError,
    DuplicateRegistration,
    EventKind,
    InvalidQuantity,
    LedgerEvent,
    NotAuthorized,
    NotRegistered,
    Role,
    StaleInterval,
    UnknownFeeder,
    read_events_jsonl,
    replay_events,
    verify_log,
    write_events_jsonl,
)
from gridtrade.market import Feeder, GridModel, Side, Solution, matchable, objective


def fresh_contract(grid, *, with_dso=True, require_dso=True, operator_feeder=None):
    contract = Contract(grid, require_dso_finalize=require_dso)
    if with_dso:
        contract.register("dso", Role.DSO, operator_feeder)
    return contract


def battery_contract_at_47(grid, operator_feeder=None):
    """Contract advanced to interval 47 with the battery-scenario offers."""
    contract = fresh_contract(grid, operator_feeder=operator_feeder)
    contract.register("P1", Role.PROSUMER, "main")
    contract.register("P2", Role.PROSUMER, "main")
    contract.register("C1", Role.PROSUMER, "main")
    contract.register("solver-1", Role.SOLVER, operator_feeder)
    for k in range(47):
        contract.finalize("dso", k)
    contract.post_offer("P1", Side.SELLING, 48, 48, 10.0)
    contract.post_offer("P2", Side.SELLING, 48, 49, 30.0)
    contract.post_offer("C1", Side.BUYING, 48, 48, 30.0)
    contract.post_offer("C1", Side.BUYING, 49, 49, 10.0)
    return contract


def battery_optimum_solution():
    return Solution({
        (1, 3, 48): (10.0, 0.5),
        (2, 3, 48): (20.0, 0.5),
        (2, 4, 49): (10.0, 0.5),
    })


class TestRegister:
    def test_fresh_registration_appends_event(self, grid):
        contract = fresh_contract(grid, with_dso=False)
        event = contract.register("alice", Role.PROSUMER, "main")
        assert event.kind == EventKind.PROSUMER_REGISTERED
        assert event.seq == 1
        second = contract.register("bob", Role.PROSUMER, "main")
        assert second.seq == 2

    def test_duplicate_registration_rejected(self, grid):
        contract = fresh_contract(grid, with_dso=False)
        contract.register("alice", Role.PROSUMER, "main")
        with pytest.raises(DuplicateRegistration):
            contract.register("alice", Role.PROSUMER, "main")

    @pytest.mark.parametrize("role", [Role.DSO, Role.SOLVER])
    def test_non_prosumer_registers_without_a_feeder(self, grid, role):
        contract = fresh_contract(grid, with_dso=False)
        event = contract.register("op", role)
        assert event.payload == {"participant": "op", "role": role.value, "feeder": None}
        assert contract.grid is grid

    def test_unknown_feeder_rejected(self, grid):
        contract = fresh_contract(grid, with_dso=False)
        with pytest.raises(UnknownFeeder):
            contract.register("alice", Role.PROSUMER, "nowhere")
        with pytest.raises(UnknownFeeder):
            contract.register("op", Role.SOLVER, "nowhere")
        assert contract.events == []

    @pytest.mark.parametrize("role", ["boss", "", None, "Prosumer"])
    def test_unknown_role_rejected(self, grid, role):
        contract = fresh_contract(grid, with_dso=False)
        with pytest.raises(ContractError, match="role must be"):
            contract.register("x", role, "main")
        assert contract.events == [] and contract.state.participants == {}


class TestPostOffer:
    def test_future_offer_accepted(self, grid):
        contract = fresh_contract(grid)
        contract.register("alice", Role.PROSUMER, "main")
        event = contract.post_offer("alice", Side.SELLING, 2, 2, 5.0)
        assert event.kind == EventKind.OFFER_POSTED
        assert event.payload["offer_id"] == 1

    def test_current_interval_is_stale(self, grid):
        contract = fresh_contract(grid)
        contract.register("alice", Role.PROSUMER, "main")
        with pytest.raises(StaleInterval):
            contract.post_offer("alice", Side.SELLING, 0, 0, 5.0)

    def test_zero_energy_rejected(self, grid):
        contract = fresh_contract(grid)
        contract.register("alice", Role.PROSUMER, "main")
        with pytest.raises(InvalidQuantity):
            contract.post_offer("alice", Side.SELLING, 2, 2, 0.0)

    @pytest.mark.parametrize("energy, price", [
        (math.nan, None), (math.inf, None), (5.0, math.nan), (5.0, math.inf)])
    def test_non_finite_quantities_rejected(self, grid, energy, price):
        contract = fresh_contract(grid)
        contract.register("alice", Role.PROSUMER, "main")
        before = len(contract.events)
        with pytest.raises(InvalidQuantity):
            contract.post_offer("alice", Side.SELLING, 2, 2, energy, price)
        assert len(contract.events) == before

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf, "1"])
    def test_non_finite_or_non_numeric_time_rejected(self, grid, time):
        contract = fresh_contract(grid)
        contract.register("alice", Role.PROSUMER, "main")
        before = len(contract.events)
        with pytest.raises(InvalidQuantity):
            contract.post_offer("alice", Side.SELLING, 2, 2, 5.0, time=time)
        with pytest.raises(InvalidQuantity):
            contract.register("bob", Role.PROSUMER, "main", time=time)
        assert len(contract.events) == before
        assert "bob" not in contract.state.participants

    @pytest.mark.parametrize("side, energy, price", [
        ("sideways", 5.0, None), (Side.SELLING, "5", None), (Side.SELLING, "x", None),
        (Side.SELLING, 5.0, "5"), (Side.SELLING, 5.0, "x")])
    def test_non_numeric_quantity_or_unknown_side_rejected(self, grid, side, energy, price):
        contract = fresh_contract(grid)
        contract.register("alice", Role.PROSUMER, "main")
        before = len(contract.events)
        with pytest.raises(InvalidQuantity):
            contract.post_offer("alice", side, 2, 2, energy, price)
        assert len(contract.events) == before

    @pytest.mark.parametrize("start, end", [
        (math.nan, 2), (2, math.nan), (math.inf, 2), (2, math.inf), (-math.inf, 2),
        (1.5, 3), (2, 2.7), ("2", 2)])
    def test_non_integral_window_rejected(self, grid, start, end):
        contract = fresh_contract(grid)
        contract.register("alice", Role.PROSUMER, "main")
        before = len(contract.events)
        with pytest.raises(InvalidQuantity):
            contract.post_offer("alice", Side.SELLING, start, end, 5.0)
        assert len(contract.events) == before

    def test_whole_float_window_posts_integers(self, grid):
        contract = fresh_contract(grid)
        contract.register("alice", Role.PROSUMER, "main")
        event = contract.post_offer("alice", Side.SELLING, 2.0, 3.0, 5.0)
        assert (event.payload["start"], event.payload["end"]) == (2, 3)
        assert type(event.payload["start"]) is int and type(event.offer.end) is int

    def test_unregistered_poster_rejected(self, grid):
        contract = fresh_contract(grid)
        with pytest.raises(NotRegistered):
            contract.post_offer("ghost", Side.SELLING, 2, 2, 5.0)

    @pytest.mark.parametrize("name, role, feeder", [
        ("dso", Role.DSO, None), ("solver-1", Role.SOLVER, None),
        ("solver-2", Role.SOLVER, "main")])
    def test_only_prosumers_post(self, grid, name, role, feeder):
        contract = fresh_contract(grid, with_dso=False)
        contract.register(name, role, feeder)
        before = len(contract.events)
        with pytest.raises(NotAuthorized):
            contract.post_offer(name, Side.SELLING, 2, 2, 500.0)
        assert len(contract.events) == before and contract.state.book == {}

    def test_offer_ids_follow_arrival_order(self, grid):
        contract = fresh_contract(grid)
        contract.register("alice", Role.PROSUMER, "main")
        contract.register("bob", Role.PROSUMER, "main")
        first = contract.post_offer("bob", Side.BUYING, 2, 2, 5.0)
        second = contract.post_offer("alice", Side.SELLING, 2, 2, 5.0)
        assert (first.payload["offer_id"], second.payload["offer_id"]) == (1, 2)


class TestSubmitSolution:
    def test_strictly_better_accepted(self, grid):
        contract = battery_contract_at_47(grid)
        event = contract.submit_solution("solver-1", battery_optimum_solution())
        assert event.kind == EventKind.SOLUTION_ACCEPTED
        assert event.payload["objective"] == pytest.approx(40.0)

    def test_infeasible_rejected_as_event(self, grid):
        contract = battery_contract_at_47(grid)
        too_big = Solution({(1, 3, 48): (25.0, 0.5)})  # seller offered 10 kWh
        event = contract.submit_solution("solver-1", too_big)
        assert event.kind == EventKind.SOLUTION_REJECTED
        assert "infeasible" in event.payload["reason"]

    def test_equal_objective_rejected_as_not_better(self, grid):
        contract = battery_contract_at_47(grid)
        contract.submit_solution("solver-1", battery_optimum_solution())
        shuffled = Solution({
            (1, 3, 48): (10.0, 0.5),
            (2, 3, 48): (20.0, 0.5),
            (2, 4, 49): (10.0, 0.5),
        })
        event = contract.submit_solution("solver-1", shuffled)
        assert event.kind == EventKind.SOLUTION_REJECTED
        assert event.payload["reason"] == "not-better"

    def test_dangling_reference_rejected_not_raised(self, grid):
        contract = battery_contract_at_47(grid)
        event = contract.submit_solution("solver-1", Solution({(2, 99, 48): (1.0, 0.5)}))
        assert event.kind == EventKind.SOLUTION_REJECTED
        assert event.payload["reason"].startswith("invalid")

    def test_float_keys_rejected_as_invalid(self, grid):
        contract = battery_contract_at_47(grid)
        floats = Solution({(float(s), float(b), float(t)): value
                           for (s, b, t), value in battery_optimum_solution().items()})
        event = contract.submit_solution("solver-1", floats)
        assert event.kind == EventKind.SOLUTION_REJECTED
        assert event.payload["reason"].startswith("invalid")
        assert contract.state.candidate == Solution.empty()

    def test_overflowing_objective_rejected_as_invalid(self, grid, tmp_path):
        contract = battery_contract_at_47(grid)
        huge = Solution({(1, 3, 48): (1.7e308, 0.5), (2, 3, 48): (1.7e308, 0.5)})
        event = contract.submit_solution("solver-1", huge)
        assert event.kind == EventKind.SOLUTION_REJECTED
        assert event.payload == {"participant": "solver-1",
                                 "reason": "invalid: objective is not finite"}
        assert contract.state.candidate == Solution.empty()
        path = write_events_jsonl(tmp_path / "events.jsonl", contract.events, contract.grid)
        assert read_events_jsonl(path)[1][-1] == event

    def test_unregistered_submitter_raises(self, grid):
        contract = battery_contract_at_47(grid)
        with pytest.raises(NotRegistered):
            contract.submit_solution("ghost", Solution.empty())

    def test_any_registered_participant_may_submit(self, grid):
        contract = battery_contract_at_47(grid)
        event = contract.submit_solution("P1", battery_optimum_solution())
        assert event.kind == EventKind.SOLUTION_ACCEPTED


class TestFinalize:
    def test_battery_trades_finalized_for_interval_48(self, grid):
        contract = battery_contract_at_47(grid)
        contract.submit_solution("solver-1", battery_optimum_solution())
        events = contract.finalize("dso", 47)
        fin = [e for e in events if e.kind == EventKind.TRADE_FINALIZED]
        assert {(e.payload["sell_offer"], e.payload["buy_offer"],
                 e.payload["power_kw"]) for e in fin} == {(1, 3, 10.0), (2, 3, 20.0)}
        assert all(e.payload["interval"] == 48 for e in fin)
        assert events[-1].kind == EventKind.INTERVAL_ADVANCED
        assert contract.state.current_interval == 48

    def test_empty_candidate_still_advances(self, grid):
        contract = fresh_contract(grid)
        events = contract.finalize("dso", 0)
        assert [e.kind for e in events] == [EventKind.INTERVAL_ADVANCED]
        assert contract.state.current_interval == 1

    def test_double_finalize_rejected(self, grid):
        contract = battery_contract_at_47(grid)
        contract.finalize("dso", 47)
        with pytest.raises(AlreadyFinalized):
            contract.finalize("dso", 47)

    def test_future_interval_rejected(self, grid):
        contract = fresh_contract(grid)
        with pytest.raises(ContractError):
            contract.finalize("dso", 5)

    def test_non_dso_caller_unauthorized(self, grid):
        contract = battery_contract_at_47(grid)
        with pytest.raises(NotAuthorized):
            contract.finalize("P1", 47)

    def test_timer_driven_finalization_flag(self, grid):
        contract = fresh_contract(grid, with_dso=False, require_dso=False)
        events = contract.finalize(None, 0)
        assert events[-1].kind == EventKind.INTERVAL_ADVANCED

    def test_pinned_interval_rejects_contradicting_solutions(self, grid):
        contract = battery_contract_at_47(grid)
        contract.submit_solution("solver-1", battery_optimum_solution())
        contract.finalize("dso", 47)
        assert contract.state.candidate == Solution({(2, 4, 49): (10.0, 0.5)})
        assert contract.state.candidate_objective == 10.0
        tampered = Solution({
            (2, 3, 48): (25.0, 0.5),  # pinned at 20
            (2, 4, 49): (10.0, 0.5),
        })
        event = contract.submit_solution("solver-1", tampered)
        assert event.kind == EventKind.SOLUTION_REJECTED
        assert event.payload["reason"].startswith("invalid:")
        assert "finalized interval" in event.payload["reason"]


class TestRemoveParticipantTrades:
    def test_future_trades_stripped_and_objective_drops(self, grid):
        contract = battery_contract_at_47(grid)
        contract.submit_solution("solver-1", battery_optimum_solution())
        before = contract.state.candidate_objective
        (event,) = contract.remove_participant_trades("P2")
        assert event.kind == EventKind.PARTICIPANT_REMOVED
        assert set(event.payload["removed_offers"]) == {2}
        assert contract.state.candidate_objective == pytest.approx(10.0)
        assert contract.state.candidate_objective < before

    def test_participant_without_trades_is_noop_event(self, grid):
        contract = fresh_contract(grid)
        contract.register("alice", Role.PROSUMER, "main")
        (event,) = contract.remove_participant_trades("alice")
        assert event.payload["removed_offers"] == []
        assert event.payload["candidate_objective"] == 0.0

    def test_pinned_trades_retained_future_removed(self, grid):
        contract = battery_contract_at_47(grid)
        contract.submit_solution("solver-1", battery_optimum_solution())
        contract.finalize("dso", 47)  # pins interval 48
        contract.remove_participant_trades("P2")
        pinned = contract.state.pinned.entries(48)
        assert pinned[(2, 3)] == (20.0, 0.5)
        assert len(contract.state.candidate) == 0
        assert contract.state.candidate_objective == 0.0

    def test_unregistered_participant_raises(self, grid):
        contract = fresh_contract(grid)
        with pytest.raises(NotRegistered):
            contract.remove_participant_trades("ghost")

    def test_stripped_candidate_remains_feasible(self, grid):
        contract = battery_contract_at_47(grid)
        contract.submit_solution("solver-1", battery_optimum_solution())
        contract.finalize("dso", 47)
        contract.remove_participant_trades("P2")
        assert contract.state.feasibility(contract.state.candidate).ok


class TestEventsSince:
    def test_fresh_ledger_is_empty(self, grid):
        contract = Contract(grid)
        assert contract.events_since(0) == []

    def test_register_and_post_give_two_events(self, grid):
        contract = Contract(grid)
        contract.register("alice", Role.PROSUMER, "main")
        contract.post_offer("alice", Side.SELLING, 2, 2, 5.0)
        events = contract.events_since(0)
        assert [e.kind for e in events] == [
            EventKind.PROSUMER_REGISTERED, EventKind.OFFER_POSTED]
        assert contract.events_since(1) == events[1:]

    @settings(max_examples=40, deadline=None)
    @given(poll_pattern=st.lists(st.booleans(), min_size=1, max_size=20))
    def test_interleaved_observers_see_identical_prefixes(self, poll_pattern):
        grid = GridModel.from_payload({
            "feeders": [{"id": "main", "net_flow_limit_kw": 100.0,
                         "internal_limit_kw": 100.0}],
            "interval_hours": 1.0, "clearing_lead": 1})
        contract = Contract(grid, require_dso_finalize=False)
        contract.register("alice", Role.PROSUMER, "main")
        seen_a: list = []
        seen_b: list = []
        start = 2
        for i, poll_a in enumerate(poll_pattern):
            contract.post_offer("alice", Side.SELLING, start + i, start + i, 1.0)
            target = seen_a if poll_a else seen_b
            target.extend(contract.events_since(len(seen_a) if poll_a else len(seen_b)))
        seen_a.extend(contract.events_since(len(seen_a)))
        seen_b.extend(contract.events_since(len(seen_b)))
        assert seen_a == seen_b
        assert [e.seq for e in seen_a] == list(range(1, len(seen_a) + 1))


class TestReplayAndVerify:
    def test_replay_reconstructs_state_exactly(self, grid):
        contract = battery_contract_at_47(grid)
        contract.submit_solution("solver-1", battery_optimum_solution())
        contract.finalize("dso", 47)
        contract.remove_participant_trades("P1")
        replayed = replay_events(grid, contract.events)
        assert replayed.snapshot() == contract.state.snapshot()

    def test_event_log_round_trips_through_jsonl(self, grid, tmp_path):
        contract = battery_contract_at_47(grid)
        contract.submit_solution("solver-1", battery_optimum_solution())
        contract.finalize("dso", 47)
        path = write_events_jsonl(tmp_path / "events.jsonl", contract.events,
                                  contract.grid)
        header, events = read_events_jsonl(path)
        restored_grid = GridModel.from_payload(header["grid"])
        replayed = replay_events(restored_grid, events)
        assert replayed.snapshot() == contract.state.snapshot()

    def test_verify_accepts_honest_history(self, grid):
        contract = battery_contract_at_47(grid)
        contract.submit_solution("solver-1", battery_optimum_solution())
        contract.finalize("dso", 47)
        assert verify_log(grid, contract.events) == []

    def test_verify_flags_tampered_finalized_power(self, grid, tmp_path):
        contract = battery_contract_at_47(grid)
        contract.submit_solution("solver-1", battery_optimum_solution())
        contract.finalize("dso", 47)
        path = write_events_jsonl(tmp_path / "events.jsonl", contract.events,
                                  contract.grid)
        lines = path.read_text().splitlines()
        tampered = []
        for line in lines:
            record = json.loads(line)
            if record.get("kind") == EventKind.TRADE_FINALIZED and \
                    record["payload"]["power_kw"] == 20.0:
                record["payload"]["power_kw"] = 26.0
            tampered.append(json.dumps(record))
        path.write_text("\n".join(tampered) + "\n")
        header, events = read_events_jsonl(path)
        problems = verify_log(GridModel.from_payload(header["grid"]), events)
        assert problems

    def test_verify_flags_wrong_trade_count(self, grid, tmp_path):
        contract = battery_contract_at_47(grid)
        contract.submit_solution("solver-1", battery_optimum_solution())
        contract.finalize("dso", 47)
        path = write_events_jsonl(tmp_path / "events.jsonl", contract.events,
                                  contract.grid)
        tampered = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record.get("kind") == EventKind.INTERVAL_ADVANCED:
                record["payload"]["trade_count"] += 5
            tampered.append(json.dumps(record))
        path.write_text("\n".join(tampered) + "\n")
        header, events = read_events_jsonl(path)
        problems = verify_log(GridModel.from_payload(header["grid"]), events)
        first = next(e for e in events if e.kind == EventKind.INTERVAL_ADVANCED)
        assert len(problems) == 1
        assert problems[0].startswith(f"seq {first.seq}: IntervalAdvanced trade_count is ")

    def test_version_1_log_refused(self, grid, tmp_path):
        path = write_events_jsonl(tmp_path / "events.jsonl", [], grid)
        record = json.loads(path.read_text())
        record["version"] = 1
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="log version 1"):
            read_events_jsonl(path)

    def test_verify_flags_fractional_offer_window(self, grid, tmp_path):
        contract = fresh_contract(grid)
        contract.register("alice", Role.PROSUMER, "main")
        posted = contract.post_offer("alice", Side.SELLING, 2, 3, 5.0)
        path = write_events_jsonl(tmp_path / "events.jsonl", contract.events, contract.grid)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[posted.seq]["payload"].update(start=2.5, end=3.9)  # after the header
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        header, events = read_events_jsonl(path)
        problems = verify_log(GridModel.from_payload(header["grid"]), events)
        assert any(p.startswith(f"seq {posted.seq}:") for p in problems)
        with pytest.raises(InvalidQuantity):
            events[posted.seq - 1].offer

    @pytest.mark.parametrize("field, value", [
        ("start", "2"), ("energy_kwh", "5"), ("reservation_price", "0.5")])
    def test_verify_flags_non_numeric_offer_field(self, grid, tmp_path, field, value):
        contract = fresh_contract(grid)
        contract.register("alice", Role.PROSUMER, "main")
        posted = contract.post_offer("alice", Side.SELLING, 2, 3, 5.0, 0.25)
        path = write_events_jsonl(tmp_path / "events.jsonl", contract.events, contract.grid)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[posted.seq]["payload"][field] = value  # after the header
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        header, events = read_events_jsonl(path)
        problems = verify_log(GridModel.from_payload(header["grid"]), events)
        assert len(problems) == 1
        assert problems[0].startswith(f"seq {posted.seq}: OfferPosted refused (InvalidQuantity")
        with pytest.raises(InvalidQuantity):
            events[posted.seq - 1].offer

    @pytest.mark.parametrize("kind, field, value", [
        (EventKind.TRADE_FINALIZED, "sell_offer", "x"),
        (EventKind.INTERVAL_ADVANCED, "finalized_interval", None),
        (EventKind.SOLUTION_ACCEPTED, "objective", "x"),
        (EventKind.SOLUTION_ACCEPTED, "objective", None),
        (EventKind.PARTICIPANT_REMOVED, "candidate_objective", "x"),
        (EventKind.PARTICIPANT_REMOVED, "candidate_objective", None)])
    def test_verify_flags_malformed_payload(self, grid, kind, field, value):
        contract = battery_contract_at_47(grid)
        contract.submit_solution("solver-1", battery_optimum_solution())
        contract.finalize("dso", 47)
        contract.remove_participant_trades("P1")
        events = contract.events
        i = next(i for i, e in enumerate(events) if e.kind == kind)
        bad = events[i]
        events[i] = LedgerEvent(bad.seq, bad.time, bad.kind, {**bad.payload, field: value})
        problems = verify_log(grid, events)
        assert len(problems) == 1
        assert problems[0].startswith(f"seq {bad.seq}: {kind.value} {field} is ")

    def test_log_naming_an_operator_feeder_verifies(self, grid, tmp_path):
        """Logs once registered the DSO and the solvers on a feeder of their
        own, ``__operator__``, which the header lists as an ordinary feeder."""
        grid = GridModel((*grid.feeders, Feeder("__operator__", 1e12, 1e12)),
                         grid.interval_hours, grid.clearing_lead)
        contract = battery_contract_at_47(grid, operator_feeder="__operator__")
        contract.submit_solution("solver-1", battery_optimum_solution())
        contract.finalize("dso", 47)
        path = write_events_jsonl(tmp_path / "events.jsonl", contract.events, grid)
        header, events = read_events_jsonl(path)
        assert [e.payload["feeder"] for e in events[:5]] == [
            "__operator__", "main", "main", "main", "__operator__"]
        assert verify_log(GridModel.from_payload(header["grid"]), events) == []

    def test_verify_flags_sequence_gap(self, grid):
        contract = battery_contract_at_47(grid)
        events = contract.events
        assert verify_log(grid, events[:3] + events[4:]) != []


def audited_history(grid):
    """Every event kind, and a rejection for each reason, at seqs 1-65.

    Registrations 1-5, advances to interval 47 at 6-52, the battery offers
    53-56, submissions 57-61 (accepted, not-better, infeasible, invalid,
    accepted), two finalized trades 62-63 and their advance 64, a removal 65.
    """
    contract = battery_contract_at_47(grid)
    for solution in (Solution({(2, 3, 48): (4.0, 0.5)}), Solution({(2, 3, 48): (2.0, 0.5)}),
                     Solution({(1, 3, 48): (50.0, 0.5)}), Solution({(9, 3, 48): (1.0, 0.5)}),
                     battery_optimum_solution()):
        contract.submit_solution("solver-1", solution)
    contract.finalize("dso", 47)
    contract.remove_participant_trades("P2")
    return contract.events


DROP = object()


def edit(seq, **fields):
    """Replace payload fields of the event at ``seq``; ``DROP`` deletes one."""
    def apply(events):
        old = events[seq - 1]
        payload = {k: v for k, v in {**old.payload, **fields}.items() if v is not DROP}
        events[seq - 1] = LedgerEvent(old.seq, old.time, old.kind, payload)
    return apply


def retime(seq, time):
    def apply(events):
        old = events[seq - 1]
        events[seq - 1] = LedgerEvent(old.seq, time, old.kind, old.payload)
    return apply


def drop(seq, *, renumber):
    def apply(events):
        del events[seq - 1]
        if renumber:
            events[seq - 1:] = [LedgerEvent(e.seq - 1, e.time, e.kind, e.payload)
                                for e in events[seq - 1:]]
    return apply


# One hand edit per rule: ``verify_log`` must report the edited seq and
# nothing after it. The first 18 are rules of the contract's operations and
# of the log's order; the last 8 are the rules a rejection is checked against.
RULE_EDITS = {
    "duplicate-registration": (3, edit(3, participant="P1")),
    "unknown-feeder": (2, edit(2, feeder="nowhere")),
    "offer-from-unregistered": (53, edit(53, participant="mallory")),
    "offer-id-out-of-order": (54, edit(54, offer_id=7)),
    "offer-for-closed-interval": (53, edit(53, start=40)),
    "accepted-infeasible": (57, edit(57, trades=[[1, 3, 48, 50.0, 0.5]], objective=50.0)),
    "accepted-not-improving": (61, edit(61, trades=[[2, 3, 48, 3.0, 0.5]], objective=3.0)),
    "accepted-objective-mismatch": (61, edit(61, objective=41.0)),
    "finalized-wrong-interval": (62, edit(62, interval=49)),
    "finalized-wrong-power": (63, edit(63, power_kw=26.0)),
    "finalized-trades-not-the-candidate": (62, drop(62, renumber=True)),
    "wrong-trade-count": (64, edit(64, trade_count=3)),
    "advance-not-sequential": (64, edit(64, interval=50)),
    "removed-unknown-participant": (65, edit(65, participant="mallory")),
    "removed-offer-set": (65, edit(65, removed_offers=[2, 3])),
    "removed-objective": (65, edit(65, candidate_objective=99.0)),
    "time-went-backwards": (57, retime(57, -1.0)),
    "seq-gap": (61, drop(60, renumber=False)),
    "rejected-from-unregistered": (58, edit(58, participant="mallory")),
    "rejection-reason-unknown": (60, edit(60, reason="approved")),
    "rejection-kind-unknown": (59, edit(59, reason="infeasible: teleport")),
    "rejection-kinds-unsorted": (59, edit(59, reason="infeasible: energy-seller, energy-buyer")),
    "not-better-without-objective": (58, edit(58, objective=DROP)),
    "invalid-with-objective": (60, edit(60, objective=1.0)),
    "rejection-objective-not-finite": (59, edit(59, objective=math.inf)),
    "not-better-beats-candidate": (58, edit(58, objective=5.0)),
}


class TestVerifyRules:
    def test_history_is_clean_and_laid_out_as_documented(self, grid):
        events = audited_history(grid)
        assert verify_log(grid, events) == []
        assert [e.seq for e in events] == list(range(1, 66))
        assert [e.payload.get("reason", e.kind)[:10] for e in events[56:]] == [
            "SolutionAc", "not-better", "infeasible", "invalid: o", "SolutionAc",
            "TradeFinal", "TradeFinal", "IntervalAd", "Participan"]

    @pytest.mark.parametrize("rule", sorted(RULE_EDITS))
    def test_each_rule_is_flagged_at_its_seq(self, grid, rule):
        seq, apply = RULE_EDITS[rule]
        events = audited_history(grid)
        apply(events)
        problems = verify_log(grid, events)
        assert len(problems) == 1 and problems[0].startswith(f"seq {seq}: "), problems


NAMES = ("dso", "solver", "alice", "bob", "carol")


class HonestHistory(RuleBasedStateMachine):
    """Random contract calls, refused ones included; the log must verify."""

    def __init__(self):
        super().__init__()
        self.grid = GridModel((Feeder("east", 4.0, 6.0), Feeder("west", 4.0, 6.0)),
                              interval_hours=1.0, clearing_lead=1)
        self.contract = Contract(self.grid)
        self.time = 0.0

    @initialize()
    def register_dso_solver_and_two_homes(self):
        self.contract.register("dso", Role.DSO)
        self.contract.register("solver", Role.SOLVER)
        self.contract.register("alice", Role.PROSUMER, "east")
        self.contract.register("bob", Role.PROSUMER, "west")

    def attempt(self, operation, *args):
        self.time += 0.5
        try:
            operation(*args, time=self.time)
        except ContractError:
            pass

    @rule(name=st.sampled_from(NAMES), role=st.sampled_from(Role),
          feeder=st.sampled_from(["east", "west", "nowhere", None]))
    def register(self, name, role, feeder):
        self.attempt(self.contract.register, name, role, feeder)

    @rule(name=st.sampled_from(("alice", "bob", "carol")), side=st.sampled_from(Side),
          start=st.integers(0, 4), length=st.integers(0, 3), energy=st.floats(0.5, 8.0),
          price=st.none() | st.floats(0.0, 1.0))
    def post_offer(self, name, side, start, length, energy, price):
        first = self.contract.state.current_interval + start
        self.attempt(self.contract.post_offer, name, side, first, first + length, energy, price)

    @rule(start=st.integers(1, 3), length=st.integers(0, 2), energy=st.floats(0.5, 4.0))
    def post_matching_pair(self, start, length, energy):
        first = self.contract.state.current_interval + start
        self.attempt(self.contract.post_offer, "alice", Side.SELLING, first, first + length, energy)
        self.attempt(self.contract.post_offer, "bob", Side.BUYING, first, first + length, energy)

    @rule(name=st.sampled_from(NAMES), bogus=st.booleans(),
          picks=st.lists(st.tuples(st.integers(0, 99), st.floats(0.05, 0.6)), max_size=4))
    def submit_solution(self, name, bogus, picks):
        state = self.contract.state
        keys = [(s.id, b.id, t) for s in state.open_offers.values()
                for b in state.open_offers.values() if matchable(s, b)
                for t in range(max(s.start, b.start, state.pinned.finalized_through + 1),
                               min(s.end, b.end) + 1)]
        entries = {}
        for pick, share in picks:  # a share of the smaller offer's energy
            if keys:
                s_id, b_id, t = keys[pick % len(keys)]
                energy = min(state.book[s_id].energy_kwh, state.book[b_id].energy_kwh)
                entries[(s_id, b_id, t)] = (share * energy, state.book[s_id].reservation)
        if bogus:
            entries[(999, 998, state.current_interval + 1)] = (1.0, 0.5)
        self.attempt(self.contract.submit_solution, name, Solution(entries))

    @rule(caller=st.sampled_from(("dso", "alice", None)), ahead=st.sampled_from((0, 0, -1, 1)))
    def finalize(self, caller, ahead):
        self.attempt(self.contract.finalize, caller, self.contract.state.current_interval + ahead)

    @rule(name=st.sampled_from(("bob", "carol", "nobody")))
    def remove_participant_trades(self, name):
        self.attempt(self.contract.remove_participant_trades, name)

    @invariant()
    def log_verifies_and_replays(self):
        events = self.contract.events
        assert verify_log(self.grid, events) == []
        assert replay_events(self.grid, events).snapshot() == self.contract.state.snapshot()


TestHonestHistory = HonestHistory.TestCase
TestHonestHistory.settings = settings(max_examples=30, stateful_step_count=50, deadline=None)


class TestContractInvariants:
    def test_candidate_objective_monotone_between_finalizations(self, grid):
        contract = battery_contract_at_47(grid)
        objectives = []
        contract.submit_solution("solver-1", Solution({(2, 3, 48): (4.0, 0.5)}))
        objectives.append(contract.state.candidate_objective)
        contract.submit_solution("solver-1", Solution({(2, 3, 48): (2.0, 0.5)}))
        objectives.append(contract.state.candidate_objective)
        contract.submit_solution("solver-1", battery_optimum_solution())
        objectives.append(contract.state.candidate_objective)
        assert objectives == sorted(objectives)

    def test_growth_tolerance_candidate_survives_new_offers(self, grid):
        contract = battery_contract_at_47(grid)
        contract.submit_solution("solver-1", battery_optimum_solution())
        contract.finalize("dso", 47)
        contract.register("newbie", Role.PROSUMER, "main")
        contract.post_offer("newbie", Side.BUYING, 50, 52, 7.5)
        assert contract.state.feasibility(contract.state.candidate).ok
        # and the next finalization still draws from it
        events = contract.finalize("dso", 48)
        fin = [e for e in events if e.kind == EventKind.TRADE_FINALIZED]
        assert {(e.payload["sell_offer"], e.payload["buy_offer"]) for e in fin} == {(2, 4)}

    def test_objective_payload_matches_recomputation(self, grid):
        contract = battery_contract_at_47(grid)
        event = contract.submit_solution("solver-1", battery_optimum_solution())
        assert event.payload["objective"] == objective(contract.state.candidate)


class TestOfferParsedOnce:
    def test_contract_and_replicas_share_one_offer_per_event(self, grid):
        contract = battery_contract_at_47(grid)
        replica = replay_events(grid, contract.events)
        again = replay_events(grid, contract.events)
        assert contract.state.book
        for oid, offer in contract.state.book.items():
            assert replica.book[oid] is offer
            assert again.book[oid] is offer

    def test_posted_offer_equals_the_parsed_payload(self, grid):
        contract = fresh_contract(grid)
        contract.register("alice", Role.PROSUMER, "main")
        event = contract.post_offer("alice", Side.BUYING, 2, 4, 5, 1)
        assert contract.state.book[1] is event.offer
        parsed = LedgerEvent.from_record(json.loads(json.dumps(event.to_record()))).offer
        assert parsed == event.offer
        assert type(event.offer.energy_kwh) is type(event.offer.reservation_price) is float

    def test_parsed_offer_leaves_event_equality_and_record_alone(self, grid):
        contract = battery_contract_at_47(grid)
        posted = [e for e in contract.events if e.kind == EventKind.OFFER_POSTED]
        for event in posted:
            copy = type(event)(event.seq, event.time, event.kind, dict(event.payload))
            assert event._parsed is not None and copy._parsed is None
            assert copy == event
            assert copy.to_record() == event.to_record()
            assert copy.offer == event.offer


class TestSolutionParsedOnce:
    def test_contract_state_holds_the_submitted_solution(self, grid):
        contract = battery_contract_at_47(grid)
        submitted = battery_optimum_solution()
        event = contract.submit_solution("solver-1", submitted)
        assert event.solution is submitted
        assert contract.state.candidate is submitted
        assert replay_events(grid, contract.events).candidate is submitted

    def test_read_back_solution_is_parsed_once_from_its_payload(self, grid, tmp_path):
        contract = battery_contract_at_47(grid)
        contract.submit_solution("solver-1", battery_optimum_solution())
        path = write_events_jsonl(tmp_path / "events.jsonl", contract.events, contract.grid)
        _, events = read_events_jsonl(path)
        event = next(e for e in events if e.kind == EventKind.SOLUTION_ACCEPTED)
        assert event._parsed is None
        assert event.solution == Solution.from_payload(event.payload["trades"])
        assert event.solution is event.solution
        assert verify_log(grid, events) == []
        assert replay_events(grid, events).candidate is event.solution


class TestEventsJsonl:
    def test_non_finite_price_cap_refused(self, grid, tmp_path):
        path = tmp_path / "events.jsonl"
        for cap in (math.nan, math.inf):
            with pytest.raises(ValueError, match="price_cap"):
                write_events_jsonl(path, [], grid, price_cap=cap)
        assert not path.exists()

    def test_lines_are_sorted_compact_records(self, grid, tmp_path):
        contract = battery_contract_at_47(grid)
        contract.submit_solution("solver-1", battery_optimum_solution())
        contract.finalize("dso", 47)
        path = write_events_jsonl(tmp_path / "events.jsonl", contract.events, contract.grid)
        header, *lines = path.read_bytes().splitlines(keepends=True)
        assert orjson.loads(header)["record"] == "header"
        assert lines == [orjson.dumps(e.to_record(), option=orjson.OPT_SORT_KEYS) + b"\n"
                         for e in contract.events]

    def test_numpy_scalars_are_logged_as_plain_numbers(self, tmp_path):
        grid = GridModel((Feeder("main", np.float64(1000.0), np.float64(1000.0)),),
                         interval_hours=1.0, clearing_lead=1)
        contract = fresh_contract(grid)
        contract.register("alice", Role.PROSUMER, "main", time=np.float64(0.5))
        contract.post_offer("alice", Side.SELLING, np.int64(2), 2, np.float64(5.0),
                            np.float64(0.25), time=np.float64(1.5))
        path = write_events_jsonl(tmp_path / "events.jsonl", contract.events, contract.grid)
        header, events = read_events_jsonl(path)
        assert [e.to_record() for e in events] == [e.to_record() for e in contract.events]
        assert events[-1].payload["reservation_price"] == 0.25
        assert GridModel.from_payload(header["grid"]) == contract.grid

    def test_json_spelled_log_reads_and_verifies(self, grid, tmp_path):
        contract = battery_contract_at_47(grid)
        contract.post_offer("P1", Side.SELLING, 49, 49, 1e-05, time=1e16)
        contract.submit_solution("solver-1", battery_optimum_solution(), time=1e16)
        contract.finalize("dso", 47, time=1e16)
        path = write_events_jsonl(tmp_path / "events.jsonl", contract.events, contract.grid)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        spelled = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        assert "1e-05" in spelled and "1e+16" in spelled
        path.write_text(spelled)
        header, events = read_events_jsonl(path)
        assert [e.to_record() for e in events] == [e.to_record() for e in contract.events]
        assert verify_log(GridModel.from_payload(header["grid"]), events) == []

    def test_second_header_is_refused(self, grid, tmp_path):
        contract = battery_contract_at_47(grid)
        first = write_events_jsonl(tmp_path / "a.jsonl", contract.events, contract.grid)
        other = GridModel((Feeder("elsewhere", 5.0, 5.0),), interval_hours=1.0, clearing_lead=1)
        second = write_events_jsonl(tmp_path / "b.jsonl", [], other)
        path = tmp_path / "both.jsonl"
        path.write_bytes(first.read_bytes() + second.read_bytes())
        line = len(contract.events) + 2
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: second header"):
            read_events_jsonl(path)

    def test_event_before_the_header_is_refused(self, grid, tmp_path):
        contract = battery_contract_at_47(grid)
        path = write_events_jsonl(tmp_path / "events.jsonl", contract.events, contract.grid)
        header, *events = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"\n" + events[0] + header + b"".join(events[1:]))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: record before the header"):
            read_events_jsonl(path)

    def test_read_event_keeps_its_parsed_payload(self):
        record = {"record": "event", "seq": 1, "time": 0.0, "kind": "ProsumerRegistered",
                  "payload": {"participant": "p1", "role": "solver", "feeder": "__operator__"}}
        assert LedgerEvent.from_record(record).payload is record["payload"]

    @pytest.mark.parametrize("line", [
        pytest.param('{"kind": "OfferPosted", "payload": {}, "record": "event"', id="truncated"),
        pytest.param('{"record": "event", "seq": 1, "time": NaN}', id="nan"),
        pytest.param('{"record": "event", "seq": 1, "time": Infinity}', id="infinity"),
        pytest.param('{"record": "event", "seq": 1, "time": 1e400}', id="out-of-range"),
        pytest.param("[1, 2]", id="not-an-object"),
        pytest.param('{"record": "event", "seq": 1}', id="no-time-kind-or-payload"),
        pytest.param('{"kind": "ProsumerRegistered", "payload": [["participant", "p1"], '
                     '["role", "solver"], ["feeder", "__operator__"]], "record": "event", '
                     '"seq": 1, "time": 0.0}', id="payload-not-an-object"),
    ])
    def test_bad_line_names_file_and_line(self, grid, tmp_path, line):
        path = write_events_jsonl(tmp_path / "events.jsonl", [], grid)
        with path.open("a") as fh:
            fh.write(line + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
            read_events_jsonl(path)
