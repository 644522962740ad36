"""The byte guard's command table (tests/guard.py) stays runnable."""

import guard
from pqprune.config import parse_config
from pqprune.experiment import cell_name, load_datasets


def test_every_guard_config_parses():
    configs = {cmd.name: parse_config(cmd.config) for cmd in guard.COMMANDS if cmd.config}
    assert len(configs) == 11
    assert len({cmd.name for cmd in guard.COMMANDS}) == len(guard.COMMANDS)
    # One desk grid runs its cells in the parent, one in forked children.
    assert configs["desk"].workers == 1 and configs["desk_workers2"].workers == 2
    # The report reads cells that one of the grids writes.
    [report] = [cmd for cmd in guard.COMMANDS if cmd.argv[0] == "report"]
    desk = configs["desk"]
    cells = {f"desk/{cell_name(alg.kind, s)}" for alg in desk.algorithms for s in desk.seeds}
    assert set(report.argv[1:-2]) <= cells


def test_idx_grid_reads_the_files_the_guard_writes(tmp_path, monkeypatch):
    guard.write_idx(tmp_path)
    monkeypatch.chdir(tmp_path)  # the config names the files relative to the side's directory
    train, test = load_datasets(parse_config(guard.IDX))
    assert train.inputs.shape == (guard.IDX_ROWS["train"], 64)
    assert len(test) == guard.IDX_ROWS["test"]
    assert set(train.labels.tolist()) == set(test.labels.tolist()) == {0, 1, 2}
