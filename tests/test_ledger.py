import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtrade.ledger import (
    AlreadyFinalized,
    Contract,
    ContractError,
    DuplicateRegistration,
    EventKind,
    InvalidQuantity,
    NotAuthorized,
    NotRegistered,
    OPERATOR_FEEDER_ID,
    Role,
    StaleInterval,
    UnknownFeeder,
    read_events_jsonl,
    replay_events,
    verify_log,
    write_events_jsonl,
)
from gridtrade.market import GridModel, Side, Solution, objective


def fresh_contract(grid, *, with_dso=True, require_dso=True):
    contract = Contract(grid, require_dso_finalize=require_dso)
    if with_dso:
        contract.register("dso", Role.DSO)
    return contract


def battery_contract_at_47(grid):
    """Contract advanced to interval 47 with the battery-scenario offers."""
    contract = fresh_contract(grid)
    contract.register("P1", Role.PROSUMER, "main")
    contract.register("P2", Role.PROSUMER, "main")
    contract.register("C1", Role.PROSUMER, "main")
    contract.register("solver-1", Role.SOLVER)
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

    def test_dso_binds_to_operator_feeder(self, grid):
        contract = fresh_contract(grid, with_dso=False)
        event = contract.register("dso", Role.DSO)
        assert event.payload["feeder"] == OPERATOR_FEEDER_ID
        feeder = contract.grid.feeder_limits()[OPERATOR_FEEDER_ID]
        assert feeder.net_flow_limit_kw >= 1e9

    def test_unknown_feeder_rejected(self, grid):
        contract = fresh_contract(grid, with_dso=False)
        with pytest.raises(UnknownFeeder):
            contract.register("alice", Role.PROSUMER, "nowhere")


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

    def test_unregistered_poster_rejected(self, grid):
        contract = fresh_contract(grid)
        with pytest.raises(NotRegistered):
            contract.post_offer("ghost", Side.SELLING, 2, 2, 5.0)

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
        assert any("trade count" in p for p in problems)

    def test_version_1_log_refused(self, grid, tmp_path):
        path = write_events_jsonl(tmp_path / "events.jsonl", [], grid)
        record = json.loads(path.read_text())
        record["version"] = 1
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="log version 1"):
            read_events_jsonl(path)

    def test_verify_flags_sequence_gap(self, grid):
        contract = battery_contract_at_47(grid)
        events = contract.events
        assert verify_log(grid, events[:3] + events[4:]) != []


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

    def test_parsed_offer_leaves_event_equality_and_record_alone(self, grid):
        contract = battery_contract_at_47(grid)
        posted = [e for e in contract.events if e.kind == EventKind.OFFER_POSTED]
        for event in posted:
            copy = type(event)(event.seq, event.time, event.kind, dict(event.payload))
            assert event._offer is not None and copy._offer is None
            assert copy == event
            assert copy.to_record() == event.to_record()
            assert copy.offer == event.offer
