"""tools/ab_ops.py: interleaved A/B timing of the dense ops."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_ops", _ROOT / "tools" / "ab_ops.py")
ab_ops = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_ops)


def test_tree_against_itself_gives_equal_bits():
    cases = [("conv3d_full", 3, 2, 3, (2, 4, 5, 6)), ("deconv3d_full", 3, 2, 2, (2, 3, 4, 5))]
    rows = ab_ops.compare(_ROOT, cases, repeats=2)
    assert [(r["op"], r["stride"], r["c_in"], r["c_out"], r["input"]) for r in rows] == [
        ("conv3d_full", 2, 2, 3, "2x4x5x6"), ("deconv3d_full", 2, 2, 2, "2x3x4x5")]
    assert all(r["bit_identical"] and r["median_ratio"] > 0 for r in rows)


def test_workload_cases_are_the_distinct_full_layers():
    cases = ab_ops.workload_cases()
    assert len(cases) == len(set(cases)) == 12
    assert cases[0] == ("conv3d_full", 3, 1, 32, (32, 24, 32, 48))
    assert {op for op, *_ in cases} == {"conv3d_full", "deconv3d_full"}
