import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtrade.controller import (
    AffineResourceModel,
    ControllerState,
    ResourceSignal,
    low_level_update,
    reset_max_lookahead,
    top_level_update,
)
from gridtrade.market import GridModel
from gridtrade.solver import SolverAgent, SolverConfig


def make_state(**overrides):
    defaults = dict(clearing_lead=1, max_lookahead=10, lookahead=8)
    defaults.update(overrides)
    return ControllerState(**defaults)


class TestTopLevel:
    def test_cpu_over_threshold_lowers_ceiling(self):
        state = top_level_update(make_state(), ResourceSignal(cpu_fraction=0.45))
        assert state.max_lookahead == 9

    def test_cpu_under_threshold_is_noop(self):
        state = make_state()
        assert top_level_update(state, ResourceSignal(cpu_fraction=0.10)) == state

    def test_ceiling_never_drops_below_clearing_lead(self):
        state = make_state(max_lookahead=1, lookahead=1)
        after = top_level_update(state, ResourceSignal(cpu_fraction=0.99))
        assert after.max_lookahead == 1

    def test_lookahead_clamped_to_new_ceiling(self):
        state = make_state(max_lookahead=8, lookahead=8)
        after = top_level_update(state, ResourceSignal(cpu_fraction=0.5))
        assert after.lookahead == 7

    def test_memory_pressure_triggers_too(self):
        state = make_state(mem_threshold=100.0)
        after = top_level_update(state, ResourceSignal(mem_bytes=200.0))
        assert after.max_lookahead == 9

    def test_sustained_pressure_reaches_floor_within_bound(self):
        state = make_state(clearing_lead=2, max_lookahead=12, lookahead=12)
        steps = 0
        while state.max_lookahead > state.clearing_lead:
            state = top_level_update(state, ResourceSignal(cpu_fraction=0.8))
            steps += 1
        assert steps <= 12 - 2


class TestLowLevel:
    def test_at_setpoint_no_change(self):
        state = make_state()
        assert low_level_update(state, 0.5).lookahead == 8

    def test_slow_solve_shrinks_lookahead_by_gain(self):
        state = make_state(kp=2.0)
        assert low_level_update(state, 1.5).lookahead == 6

    def test_fast_solve_at_ceiling_stays(self):
        state = make_state(lookahead=10)
        assert low_level_update(state, 0.1).lookahead == 10

    def test_never_below_clearing_lead(self):
        state = make_state(clearing_lead=2, lookahead=2)
        assert low_level_update(state, 50.0).lookahead == 2

    def test_convergence_with_monotone_model(self):
        model = lambda lookahead: 0.07 * lookahead + 0.03
        state = make_state(max_lookahead=30, lookahead=2)
        seen = []
        for _ in range(state.max_lookahead - state.clearing_lead):
            state = low_level_update(state, model(state.lookahead))
            seen.append(state.lookahead)
        fixed = seen[-1]
        assert seen.count(fixed) >= 2  # settled
        # at the fixed point the error is inside the rounding deadband
        assert abs(model(fixed) - state.setpoint) <= 0.5 / state.kp + 1e-9

    def test_negative_solve_time_rejected(self):
        with pytest.raises(ValueError):
            low_level_update(make_state(), -0.1)


class TestReset:
    def test_reset_rearms_ceiling(self):
        state = make_state(max_lookahead=3, lookahead=3)
        after = reset_max_lookahead(state, 12)
        assert after.max_lookahead == 12
        assert after.lookahead == 3

    def test_reset_below_lead_rejected(self):
        with pytest.raises(ValueError):
            reset_max_lookahead(make_state(clearing_lead=2, lookahead=2), 1)


class FixedSignalModel:
    """A resource model that reports one fixed signal whatever the LP size."""

    def __init__(self, signal):
        self._signal = signal

    def solve_time(self, n_variables):
        return self._signal.solve_time

    def signal(self, n_variables, solve_period):
        return self._signal


def agent_with(state, signal):
    grid = GridModel(feeders=(), interval_hours=0.25, clearing_lead=state.clearing_lead)
    return SolverAgent("solver-1", grid, SolverConfig(lookahead=state.lookahead),
                       controller=state, resource_model=FixedSignalModel(signal))


class TestHandleResourceEvent:
    """A solver agent routes each solve's resource events to the two loops:
    the CPU signal to the top-level update, the solve time to the low-level one."""

    def test_cpu_routes_to_top_level(self):
        agent = agent_with(make_state(), ResourceSignal(cpu_fraction=0.9))
        agent._update_controller(time=0.0, n_variables=10, modeled_time=0.5)
        assert agent.controller.max_lookahead == 9
        assert agent.controller.lookahead == 8
        assert agent.controller_trace[-1]["cpu_fraction"] == 0.9

    def test_deadline_routes_to_low_level(self):
        agent = agent_with(make_state(kp=2.0), ResourceSignal(cpu_fraction=0.1))
        agent._update_controller(time=0.0, n_variables=10, modeled_time=1.5)
        assert agent.controller.max_lookahead == 10
        assert agent.controller.lookahead == 6


class TestAffineModel:
    def test_solve_time_affine_in_variables(self):
        model = AffineResourceModel(base_seconds=0.1, seconds_per_variable=0.01)
        assert model.solve_time(0) == pytest.approx(0.1)
        assert model.solve_time(100) == pytest.approx(1.1)

    def test_signal_caps_cpu_at_one(self):
        model = AffineResourceModel(base_seconds=5.0, seconds_per_variable=0.0)
        assert model.signal(10, 1.0).cpu_fraction == 1.0


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(
    st.one_of(
        st.tuples(st.just("top"), st.floats(0.0, 1.0)),
        st.tuples(st.just("low"), st.floats(0.0, 5.0)),
        st.tuples(st.just("reset"), st.integers(1, 20)),
    ),
    min_size=0, max_size=40))
def test_bound_invariant_under_any_call_sequence(ops):
    state = ControllerState(clearing_lead=1, max_lookahead=10, lookahead=5)
    ceilings = [state.max_lookahead]
    for kind, value in ops:
        if kind == "top":
            state = top_level_update(state, ResourceSignal(cpu_fraction=value))
            ceilings.append(state.max_lookahead)
        elif kind == "low":
            state = low_level_update(state, value)
        else:
            state = reset_max_lookahead(state, int(value))
            ceilings = [state.max_lookahead]  # ratchet re-armed
        assert state.clearing_lead <= state.lookahead <= state.max_lookahead
    # between resets the ceiling never increases
    assert ceilings == sorted(ceilings, reverse=True)


def test_signal_validation():
    with pytest.raises(ValueError):
        ResourceSignal(cpu_fraction=1.5)
    with pytest.raises(ValueError):
        ResourceSignal(mem_bytes=-1.0)
    assert math.isinf(ControllerState(1, 5, 3).mem_threshold)
