"""The byte guard's command table (tests/guard.py) stays runnable."""

import json

import guard
from pqprune.config import parse_config
from pqprune.data_io import SyntheticSpec
from pqprune.experiment import Cell, cells, load_datasets
from pqprune.nn import model_specs


def guard_configs():
    return {cmd.name: parse_config(cmd.config) for cmd in guard.COMMANDS if cmd.config}


def test_every_guard_config_parses():
    configs = guard_configs()
    assert len(configs) == 11
    assert len({cmd.name for cmd in guard.COMMANDS}) == len(guard.COMMANDS)
    # One desk grid runs its cells in the parent, one in forked children.
    assert configs["desk"].workers == 1 and configs["desk_workers2"].workers == 2
    # The report reads cells that one of the grids writes.
    [report] = [cmd for cmd in guard.COMMANDS if cmd.argv[0] == "report"]
    assert set(report.argv[1:-2]) <= {f"desk/{cell.name}" for cell in cells(configs["desk"])}


def test_every_guard_cell_is_read_back_from_its_echo():
    # The echo as run.json holds it, read back: the cell, and no other.
    for cfg in guard_configs().values():
        ds = cfg.dataset
        # The IDX grid reads guard.write_idx's 8 x 8 images in three classes.
        shape = (ds.n_features, ds.n_classes) if isinstance(ds, SyntheticSpec) else (64, 3)
        specs = model_specs(cfg.model, *shape)
        for cell in cells(cfg):
            assert Cell.from_echo(json.loads(json.dumps(cell.echo(specs)))) == cell


def test_idx_grid_reads_the_files_the_guard_writes(tmp_path, monkeypatch):
    guard.write_idx(tmp_path)
    monkeypatch.chdir(tmp_path)  # the config names the files relative to the side's directory
    train, test = load_datasets(parse_config(guard.IDX))
    assert train.inputs.shape == (guard.IDX_ROWS["train"], 64)
    assert len(test) == guard.IDX_ROWS["test"]
    assert set(train.labels.tolist()) == set(test.labels.tolist()) == {0, 1, 2}
