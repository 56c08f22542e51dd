"""A committed output corpus: every file of a few days' report bundles, pinned.

Each case runs one day in process, writes its report bundle and compares
the SHA-256 of every file with the pin below; its event log must also
verify. The cases are the benchmark's two day settings (restated here, so
that the test needs only ``src/``) at seeds 1 and 2, and README's example
config shrunk to 20 homes over 24 intervals, with its failures kept: as
written, with ``adaptive = true`` so that ``controller.csv`` has rows, with
``clearing_lead = 2`` so that one day finalizes two intervals ahead, and
with p013 failing at 20.1 s and recovering at 22 s, no reactivation delay,
so that a prosumer re-posts the offers its removal withdrew; and with three
solvers and a confirmation delay of 1.5 s, so that each solver sends its
copy of one shared solution late and the contract refuses the later copies.

The pins hold for this environment's NumPy, SciPy and HiGHS, as
``GOLDEN_EVENTS_SHA256`` in ``test_contested_run.py`` does: a release that
moves HiGHS's vertex or the seeded draws moves them. A change that moves a
pin on purpose names the file, the case and the reason in CHANGES.md.
"""

import hashlib

import pytest

from gridtrade.cli import main
from gridtrade.ledger import read_events_jsonl, verify_log
from gridtrade.market import Feeder, GridModel
from gridtrade.metrics import export_report
from gridtrade.sim import FailureSpec, SimConfig, run
from gridtrade.traces import ProsumerTrace, synthesize_traces

BUNDLE = ("events.jsonl", "metrics.csv", "intervals.csv", "solver.csv", "controller.csv",
          "failures.csv", "summary.json")

# The benchmark's day workloads: a synthesized community of 96 intervals.
DAYS = {
    "community_day": dict(homes=102, producers=5, feeders=11, solvers=1, adversaries=0,
                          failures=()),
    "contested_day": dict(homes=51, producers=3, feeders=6, solvers=3, adversaries=2,
                          failures=(("p001", 200.0, None), ("solver-2", 100.0, 180.0))),
}

# README's example config, with the community shrunk to 20 homes over 24
# intervals. The day ends at 96 s, so p013's failure at 100 s and solver-2's
# recovery at 126.52 s come after the last finalization and are not played.
README_CONFIG = """\
horizon = 24
interval_hours = 0.25
seconds_per_interval = 4
clearing_lead = 1
prediction_window = 3
lookahead = 5
solver_period = 2
solvers = 2
adversaries = 0
seed = 7
price_cap = 1.0
unit_price = 0.12
feeders = f01:2000:2500; f02:2000:2500
default_feeder_net_kw = 1e6
default_feeder_internal_kw = 1e6
failures = p013:100:-; solver-2:50:120
detect_latency = 0.14
notify_latency = 1.88
reactivate_latency = 6.52
confirmation_delay = 0
synthesize = homes=20,producers=5,feeders=11,intervals=24
adaptive = false
"""


def day_traces(spec: dict, seed: int) -> list[ProsumerTrace]:
    """The benchmark's traces: every producer scaled to the nominal solar peak."""
    out = []
    for trace in synthesize_traces(spec["homes"], spec["producers"], spec["feeders"], 96,
                                   seed=1000 + seed):
        peak = max(trace.production)
        if peak > 0:
            nominal = 1.6 * 0.09 * spec["homes"] / spec["producers"]
            production = tuple(round(v * nominal / peak, 4) for v in trace.production)
            trace = ProsumerTrace(trace.participant, trace.feeder, production, trace.demand,
                                  trace.flexible, trace.flex_window)
        out.append(trace)
    return out


def run_day(workload: str, seed: int, out) -> None:
    spec = DAYS[workload]
    traces = day_traces(spec, seed)
    grid = GridModel(tuple(Feeder(f, 2000.0, 2500.0) for f in sorted({t.feeder for t in traces})),
                     0.25, 1)
    config = SimConfig(grid=grid, horizon=96, seconds_per_interval=4.0, prediction_window=3,
                       solver_period=2.0, lookahead=5, n_solvers=spec["solvers"],
                       n_adversaries=spec["adversaries"], seed=seed,
                       failures=tuple(FailureSpec(*f) for f in spec["failures"]))
    export_report(run(config, traces), out)


def run_readme(adaptive: bool, out, *sets: str) -> None:
    config = out.parent / "readme.cfg"
    config.write_text(README_CONFIG, encoding="utf-8")
    overrides = [arg for value in sets for arg in ("--set", value)]
    assert main(["run", "--config", str(config), "--out", str(out),
                 "--set", f"adaptive={str(adaptive).lower()}", *overrides]) == 0


CASES = {
    "community_day-seed1": lambda out: run_day("community_day", 1, out),
    "community_day-seed2": lambda out: run_day("community_day", 2, out),
    "contested_day-seed1": lambda out: run_day("contested_day", 1, out),
    "contested_day-seed2": lambda out: run_day("contested_day", 2, out),
    "readme": lambda out: run_readme(False, out),
    "readme-adaptive": lambda out: run_readme(True, out),
    "readme-lead2": lambda out: run_readme(False, out, "clearing_lead=2"),
    # p013 is removed at 21.98 s and back at 22 s; at 24 s it posts intervals
    # 7 and 8 again, which only forget_future_offers lets it do.
    "readme-recovery": lambda out: run_readme(False, out, "failures=p013:20.1:22; solver-2:50:120",
                                              "reactivate_latency=0"),
    # Three solvers at one ledger state share one solve; each sends its copy
    # 1.5 s later, and the contract refuses the copies after the first.
    "readme-delay": lambda out: run_readme(False, out, "confirmation_delay=1.5", "solvers=3"),
}

# SHA-256 of each bundle file, by case and file.
PINS = {
    "community_day-seed1": {
        "events.jsonl": "59db8203b7f8c576ce6d3405f1344398eea406af205f48874360f90ba267f67f",
        "metrics.csv": "7af44607374f1aebbfbef3ed3e41a7b7fc8eeacd4d03946416143115f097ea59",
        "intervals.csv": "fd9430756faf97c40babaf753ea3bfec2e807ddc6342a2310cd9d7851d222e4b",
        "solver.csv": "fca3cb0c8eb29499bf59df0ea55221661d6103e1edab9a06118761859a0fa45d",
        "controller.csv": "aae8286660814f4ff311fe0f569a3d8a6854e929499750996ded4f5fe92903d7",
        "failures.csv": "cdcc25ebde326056ba7c010ddf773a495c1d7533b0cbc09e12d9ff66c4706095",
        "summary.json": "949deb18193f7bd755f512cb9a3608fa40ad3da03f7e767145af98cc72918510",
    },
    "community_day-seed2": {
        "events.jsonl": "20c1496f15001c91d38ae71c95f540fcdfc20c09d6b55182aa068c4a0fd4f74c",
        "metrics.csv": "4fb9a2dee346e7966fddc5fa74d263b666f9d13ccc3227105a29941a0acda4f6",
        "intervals.csv": "833c7867565d3afe7896061a0b899547f08448090d73cada5573a0b6faa37437",
        "solver.csv": "fbc0be1cfa5efd8654cf4f3d41b0ad3fbdc71126dc60f5be821df56bccd383b1",
        "controller.csv": "aae8286660814f4ff311fe0f569a3d8a6854e929499750996ded4f5fe92903d7",
        "failures.csv": "cdcc25ebde326056ba7c010ddf773a495c1d7533b0cbc09e12d9ff66c4706095",
        "summary.json": "970f62bc12597c9ef3439a5dd9c3b50a4b16bb9af212ce6a191e3aab2fea163e",
    },
    "contested_day-seed1": {
        "events.jsonl": "ee6a811e498adc162b65c1342fb19096b1141fc91bb165101cbef9b4d672f65f",
        "metrics.csv": "74a5d3bc2d57f4d8e551adebbe58605f9408dc71298edb9325ffadea7cabef16",
        "intervals.csv": "def2f417bb47403c9eccef21aa1cca0c778dbcb0d3f86221690b294f6e27835c",
        "solver.csv": "60925d0ef4ea7d3b7bd1176cf384ba54605b8c98c12558f532ca8f560b47cbf8",
        "controller.csv": "aae8286660814f4ff311fe0f569a3d8a6854e929499750996ded4f5fe92903d7",
        "failures.csv": "9e810d28b90fae0379558df864294a7ffa7c73b804cc6edf794d3df96f830c61",
        "summary.json": "13587d7de87e04a4065743da11dce585a127f7b26b237f7eac2af04dea987b34",
    },
    "contested_day-seed2": {
        "events.jsonl": "1c2e88a9dc62fe9e3bcb745568f50b8321db189bf27d644432d1e81c723911fe",
        "metrics.csv": "4e6af489f6bd05202229d65403481a795dde69dd90ba5e4a1142ebea53df5b4a",
        "intervals.csv": "f04d6f1231ac8b9b2188d6ccb72be539a386ed5c64f2357a0bc0bc3a401bb620",
        "solver.csv": "a7e3807227c80fa898f5a3ee1f1e9508af0453aa002523c0f020df5ffc3e8e48",
        "controller.csv": "aae8286660814f4ff311fe0f569a3d8a6854e929499750996ded4f5fe92903d7",
        "failures.csv": "9e810d28b90fae0379558df864294a7ffa7c73b804cc6edf794d3df96f830c61",
        "summary.json": "2496071d30e51394ddf8472f8387184092ab19891ca5d734023e44699cd9a13b",
    },
    "readme": {
        "events.jsonl": "6de88120753f57197ba06566853a5b89ea40208759219da3bf37bab01b764aa9",
        "metrics.csv": "9818f9cea7b1acb689433eebf2dece63ce6ff836d0e01f12e68ebeff2f5101ff",
        "intervals.csv": "f4c062e6c20a3c99aeb432495435c2e081d3fb3b3a14c74bdca3a387eadd8c00",
        "solver.csv": "a7537a4e83f751334536e922e2e7aa4740b2dd0f2c053d4e8b6666125ffcc65f",
        "controller.csv": "aae8286660814f4ff311fe0f569a3d8a6854e929499750996ded4f5fe92903d7",
        "failures.csv": "ec3df200fe9899141cb8b357911f408d46fb061a0e38417feb7098bc830e9f05",
        "summary.json": "ee2d056a2df5e09279460f97cde2182b5147ac95adacb6ddb562aaa82deb0dfa",
    },
    "readme-adaptive": {
        "events.jsonl": "6de88120753f57197ba06566853a5b89ea40208759219da3bf37bab01b764aa9",
        "metrics.csv": "9818f9cea7b1acb689433eebf2dece63ce6ff836d0e01f12e68ebeff2f5101ff",
        "intervals.csv": "f4c062e6c20a3c99aeb432495435c2e081d3fb3b3a14c74bdca3a387eadd8c00",
        "solver.csv": "a7537a4e83f751334536e922e2e7aa4740b2dd0f2c053d4e8b6666125ffcc65f",
        "controller.csv": "f5450def66116d6409647ef867f556cc238359964cc3816b02a14a12acfd7d8b",
        "failures.csv": "ec3df200fe9899141cb8b357911f408d46fb061a0e38417feb7098bc830e9f05",
        "summary.json": "ee2d056a2df5e09279460f97cde2182b5147ac95adacb6ddb562aaa82deb0dfa",
    },
    "readme-lead2": {
        "events.jsonl": "ac9dd2cbd2522ed8f339ebbaaf75d80737ec8db68dab867777940c578feda167",
        "metrics.csv": "d0767107135d5ec48f3c0b910a6548cca64a2f337776210779b5585c061f2d72",
        "intervals.csv": "4385375008ad4cba82b24f8b51220170b26dbc7e9d363624ca5e860f46801406",
        "solver.csv": "49067ad7849316b53bd5aabc5d7ccc51e3b9733032b439253ce787a71ed19805",
        "controller.csv": "aae8286660814f4ff311fe0f569a3d8a6854e929499750996ded4f5fe92903d7",
        "failures.csv": "ec3df200fe9899141cb8b357911f408d46fb061a0e38417feb7098bc830e9f05",
        "summary.json": "a678ee9a90a9f85ed3c994e84e8b1c7a65435cbb12e2b08a05d773949dba1ead",
    },
    "readme-recovery": {
        "events.jsonl": "900a3129e61c36f65079bd7aa585d2adba9c6dd82619d71a7ffbab2993563efa",
        "metrics.csv": "e459e4acf52589fd5ceeab6624c89c91f828ec3541277ce256e5770954b5c002",
        "intervals.csv": "8f02ee8548f900f24b9741912881e01ddaa2b48090f738d6147404d01ecfafef",
        "solver.csv": "21e3e07307d0868ae2f83361424583765c607a7e10702cedbc33756998302b6e",
        "controller.csv": "aae8286660814f4ff311fe0f569a3d8a6854e929499750996ded4f5fe92903d7",
        "failures.csv": "9ae2561a0124742d280eea6d7deb14e01a76e1116c32c874a5f01b9a2d575551",
        "summary.json": "f41496677f7a3639c75cc534190cdac01b0ab9dec8c8a03d265960e588880e94",
    },
    "readme-delay": {
        "events.jsonl": "fa35b0a61a80539528e61ae24c371c050d290c097a6bad4a82ab07e0dd684990",
        "metrics.csv": "9818f9cea7b1acb689433eebf2dece63ce6ff836d0e01f12e68ebeff2f5101ff",
        "intervals.csv": "f4c062e6c20a3c99aeb432495435c2e081d3fb3b3a14c74bdca3a387eadd8c00",
        "solver.csv": "8e0857b3baa805107860d5bd8f2056be18ba4ec76e2b6e4a9464dba535ff0b5a",
        "controller.csv": "aae8286660814f4ff311fe0f569a3d8a6854e929499750996ded4f5fe92903d7",
        "failures.csv": "ec3df200fe9899141cb8b357911f408d46fb061a0e38417feb7098bc830e9f05",
        "summary.json": "93c7f06fb2fbd92289b3dbbb02f4952849798ffba73a2c19f21848095360f6b4",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bundle_is_byte_identical_and_its_log_verifies(case, tmp_path):
    out = tmp_path / "bundle"
    CASES[case](out)
    assert sorted(path.name for path in out.iterdir()) == sorted(BUNDLE)  # no file unpinned
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in BUNDLE}
    assert digests == PINS[case]
    header, events = read_events_jsonl(out / "events.jsonl")
    assert verify_log(GridModel.from_payload(header["grid"]), events) == []
