"""The one small grid that the CLI tests read, run once per session."""

import pytest

from pqprune import cli
from test_exit_codes import TINY_CONFIG


@pytest.fixture(scope="session")
def run_root(tmp_path_factory):
    """A directory holding `exp.cfg`, which is TINY_CONFIG, and `out`, its grid's output."""
    root = tmp_path_factory.mktemp("cells")
    (root / "exp.cfg").write_text(TINY_CONFIG)
    assert cli.main(["run", "--config", str(root / "exp.cfg"), "--out", str(root / "out")]) == 0
    return root
