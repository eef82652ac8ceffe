"""A fixed-seed CLI pipeline reproduces the committed golden outputs."""
import json

import numpy as np

from golden.update import GOLDEN, pipeline


def test_pipeline_reproduces_the_golden_outputs(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = pipeline(tmp_path)
    assert got["sha256"] == expected["sha256"]
    assert got["checkpoint"].keys() == expected["checkpoint"].keys()
    for key, summary in expected["checkpoint"].items():
        for field, value in summary.items():
            np.testing.assert_allclose(got["checkpoint"][key][field], value, rtol=1e-9,
                                       err_msg=f"checkpoint {key} {field}")
