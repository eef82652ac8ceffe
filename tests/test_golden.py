"""A fixed-seed CLI pipeline reproduces the committed golden outputs."""
import json

from golden.update import GOLDEN, differences, pipeline


def test_pipeline_reproduces_the_golden_outputs(tmp_path):
    """Every digest exactly, every checkpoint value within ``RTOL``, as ``--check``."""
    expected = json.loads(GOLDEN.read_text())
    got = pipeline(tmp_path)
    assert got["sha256"].keys() == expected["sha256"].keys()
    assert got["checkpoint"].keys() == expected["checkpoint"].keys()
    failures, _ = differences(expected, got)
    assert failures == []


def test_check_names_each_entry_a_run_does_not_reproduce():
    old = {"sha256": {"a.csv": "01", "b.csv": "02"},
           "checkpoint": {"w": {"sum": 2.0, "norm": 1.0, "first": [1.0, 0.5]}}}
    new = {"sha256": {"a.csv": "01", "b.csv": "03"},
           "checkpoint": {"w": {"sum": 2.5, "norm": 1.0 + 1e-12, "first": [1.0, 0.25]}}}
    assert differences(old, old) == ([], 0)
    assert differences(old, new) == (["sha256 b.csv",
                                       "checkpoint w.sum: 2.0 -> 2.5 (relative 0.25)",
                                       "checkpoint w.first[1]: 0.5 -> 0.25 (relative 0.5)"], 1)
