"""The byte guard's command table (tests/guard.py) stays runnable."""

import guard
from pqprune.config import parse_config
from pqprune.experiment import cell_name


def test_every_guard_config_parses():
    configs = {cmd.name: parse_config(cmd.config) for cmd in guard.COMMANDS if cmd.config}
    assert len(configs) == 9
    assert len({cmd.name for cmd in guard.COMMANDS}) == len(guard.COMMANDS)
    # The report reads cells that one of the grids writes.
    [report] = [cmd for cmd in guard.COMMANDS if cmd.argv[0] == "report"]
    desk = configs["desk"]
    cells = {f"desk/{cell_name(alg.kind, s)}" for alg in desk.algorithms for s in desk.seeds}
    assert set(report.argv[1:-2]) <= cells
