"""The benchmark self-test corrupts source lines it names verbatim; pin them here.

``perfbench/selftest.py`` replaces each ``CORRUPTIONS`` target once and fails
unless it occurs exactly once, so a refactor that rewrites one of those lines
would pass every other test here and break the self-test.  The list is read
with ``ast``: the self-test is neither imported nor edited.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SELFTEST = ROOT / "perfbench" / "selftest.py"


def _corruptions() -> list:
    for node in ast.parse(SELFTEST.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CORRUPTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/selftest.py assigns no CORRUPTIONS list")


@pytest.mark.skipif(not SELFTEST.exists(), reason="perfbench/selftest.py is absent")
def test_each_benchmark_corruption_target_occurs_once_in_its_file():
    corruptions = _corruptions()
    assert corruptions
    for workload, target, old, _ in corruptions:
        assert (ROOT / target).read_text().count(old) == 1, (workload, target, old)
