"""The tuple records that check their values (the grid's and the run
side's): every way to make one goes through the one check in ``__new__``,
copies equal the original, and the records that hold arrays are equal only
to themselves."""

import copy
import math
import pickle

import pytest

from gridtrade.controller import ControllerState, ResourceSignal
from gridtrade.market import Feeder, GridModel
from gridtrade.oracle import build_reference_problem
from gridtrade.sim import ConfigError, FailureSpec, SimConfig
from gridtrade.solver import SolverConfig, build_lp, solve_with_diagnostics
from gridtrade.traces import ProsumerTrace

FEEDER = Feeder("main", 100.0, 80.0)
GRID = GridModel((FEEDER,), 0.25, 1)
SPEC = FailureSpec("p1", 1.0, 2.0)
GOOD_RECORDS = {
    Feeder: FEEDER,
    GridModel: GRID,
    SolverConfig: SolverConfig(lookahead=3),
    SimConfig: SimConfig(grid=GRID, horizon=4, failures=(SPEC,)),
    FailureSpec: SPEC,
    ControllerState: ControllerState(1, 10, 8),
    ResourceSignal: ResourceSignal(0.5, 1e6, 0.2),
    ProsumerTrace: ProsumerTrace("p1", "f01", (1.0, 0.0), (0.0, 1.0), True, 2),
}

# Values refused by ``__new__``: (record class, changed fields, error, message).
BAD_RECORDS = {
    "feeder-nan-limit": (Feeder, {"net_flow_limit_kw": math.nan}, ValueError,
                         "feeder main: limits"),
    "feeder-int-id": (Feeder, {"id": 5}, ValueError, "feeder id"),
    "feeder-empty-id": (Feeder, {"id": ""}, ValueError, "feeder id"),
    "feeder-padded-id": (Feeder, {"id": " main"}, ValueError, "feeder id"),
    "grid-nan-hours": (GridModel, {"interval_hours": math.nan}, ValueError, "interval_hours"),
    "grid-bool-lead": (GridModel, {"clearing_lead": True}, ValueError, "clearing_lead"),
    "grid-duplicate-ids": (GridModel, {"feeders": (FEEDER, Feeder("main", 1.0, 1.0))},
                           ValueError, "feeder ids"),
    "solver-zero-lookahead": (SolverConfig, {"lookahead": 0}, ValueError, "lookahead"),
    "solver-nan-period": (SolverConfig, {"solve_period": math.nan}, ValueError, "solve_period"),
    "sim-zero-horizon": (SimConfig, {"horizon": 0}, ConfigError, "horizon"),
    "sim-str-adaptive": (SimConfig, {"adaptive": "no"}, ConfigError, "adaptive"),
    "sim-tuple-failure": (SimConfig, {"failures": (("p1", 1.0, None),)}, ConfigError,
                          "failures"),
    "failure-int-participant": (FailureSpec, {"participant": 5}, ConfigError, "participant"),
    "failure-empty-participant": (FailureSpec, {"participant": ""}, ConfigError, "participant"),
    "failure-padded-participant": (FailureSpec, {"participant": "p1 "}, ConfigError,
                                   "participant"),
    "failure-nan-time": (FailureSpec, {"fail_time": math.nan}, ConfigError, "p1: fail_time"),
    "state-lookahead-below-lead": (ControllerState, {"lookahead": 0}, ValueError, "lookahead"),
    "signal-cpu-over-one": (ResourceSignal, {"cpu_fraction": 1.5}, ValueError, "cpu_fraction"),
    "trace-int-participant": (ProsumerTrace, {"participant": 5}, ValueError, "participant"),
    "trace-int-feeder": (ProsumerTrace, {"feeder": 5}, ValueError, "p1: feeder"),
    "trace-empty-participant": (ProsumerTrace, {"participant": ""}, ValueError, "participant"),
    "trace-padded-participant": (ProsumerTrace, {"participant": " p1 "}, ValueError,
                                 "participant"),
    "trace-empty-feeder": (ProsumerTrace, {"feeder": ""}, ValueError, "p1: feeder"),
    "trace-padded-feeder": (ProsumerTrace, {"feeder": "f01\n"}, ValueError, "p1: feeder"),
    "trace-str-flexible": (ProsumerTrace, {"flexible": "no"}, ValueError, "p1: flexible"),
    "trace-int-flexible": (ProsumerTrace, {"flexible": 1}, ValueError, "p1: flexible"),
}
# Every way to make a record of ``fields``; the copies and pickles are of a
# record made with no check, as a pickle of one could hold it.
RECORD_PATHS = {
    "positional": lambda cls, fields: cls(*fields.values()),
    "keyword": lambda cls, fields: cls(**fields),
    "make": lambda cls, fields: cls._make(fields.values()),
    "replace": lambda cls, fields: GOOD_RECORDS[cls]._replace(**fields),
    "copy": lambda cls, fields: copy.copy(tuple.__new__(cls, fields.values())),
    "deepcopy": lambda cls, fields: copy.deepcopy(tuple.__new__(cls, fields.values())),
    **{f"pickle-{protocol}": lambda cls, fields, protocol=protocol: pickle.loads(
        pickle.dumps(tuple.__new__(cls, fields.values()), protocol))
       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)},
}


class TestRunRecords:
    @pytest.mark.parametrize("path", RECORD_PATHS)
    @pytest.mark.parametrize("case", BAD_RECORDS)
    def test_no_path_makes_a_bad_record(self, case, path):
        cls, changes, error, what = BAD_RECORDS[case]
        fields = {**GOOD_RECORDS[cls]._asdict(), **changes}
        with pytest.raises(error, match=f"^{what} must be "):
            RECORD_PATHS[path](cls, fields)

    @pytest.mark.parametrize("cls", GOOD_RECORDS, ids=lambda cls: cls.__name__)
    def test_copies_and_pickles_are_equal_records(self, cls):
        record = GOOD_RECORDS[cls]
        # A frozen dataclass hashed the tuple of its fields, as the record does.
        assert hash(record) == hash(tuple(record))
        for twin in (copy.copy(record), copy.deepcopy(record), record._replace(),
                     cls._make(record), cls(*record), cls(**record._asdict()),
                     *(pickle.loads(pickle.dumps(record, protocol))
                       for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
            assert twin == record and hash(twin) == hash(record) and type(twin) is cls
        assert pickle.loads(pickle.dumps(record)) is not record
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_a_config_made_with_a_list_of_failures_holds_a_tuple(self):
        config = GOOD_RECORDS[SimConfig]
        for twin in (SimConfig(GRID, 4, failures=[SPEC]), config._replace(failures=[SPEC])):
            assert type(twin.failures) is tuple and twin == config
            assert hash(twin) == hash(config)

    def test_a_trace_has_the_length_of_its_series(self):
        trace = GOOD_RECORDS[ProsumerTrace]
        assert len(trace) == 2 and len(trace._replace(production=(), demand=())) == 0
        assert len(tuple(trace)) == len(trace._fields)

    def test_records_holding_arrays_are_equal_only_to_themselves(
            self, battery_book, grid, pins_through_47):
        def records():
            instance = build_lp(battery_book, grid, pins_through_47, 47,
                                SolverConfig(lookahead=2))
            return (instance, instance.matrix, solve_with_diagnostics(instance)[1],
                    build_reference_problem(battery_book, grid, pins_through_47, 47, 2))

        # Equal arrays in distinct objects: comparing them would raise.
        for first, second in zip(records(), records()):
            assert first == first and not first != first
            assert first != second and not first == second
            assert first != type(first)._make(first)
            assert len({first, second, first}) == 2
