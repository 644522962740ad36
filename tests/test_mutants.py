"""The mutation list in tests/mutants.py still applies to the code."""

import re

import pytest

import mutants


@pytest.mark.parametrize(
    "mutant", mutants.MUTANTS, ids=lambda m: re.sub(r"\W+", "_", m.name).strip("_")
)
def test_old_text_occurs_once(mutant):
    assert mutants.occurrences(mutant) == 1
    assert mutant.new != mutant.old
    assert all((mutants.ROOT / t).is_file() for t in mutant.tests)
