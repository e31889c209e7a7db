import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


@pytest.mark.parametrize(
    "qps, drift",
    [
        ([136, 130, 125, 121, 118], True),
        ([118, 121, 125, 130, 136], True),
        ([100, 101, 101, 103, 106], True),
        ([100, 101, 102, 103, 104], False),
        ([100, 99, 101, 98, 90], False),
        ([100, 100, 100, 100, 100], False),
        ([294.9, 292.6, 257.7, 266.0, 267.5], True),
        ([257.7, 266.0, 294.9, 292.6, 297.5], True),
        ([100, 80, 100, 100, 100], False),
        ([100, 100, 96, 97, 96], False),
    ],
    ids=["falls", "rises", "rises-with-a-tie", "within-5-percent", "not-monotonic", "flat",
         "steps-down", "steps-up", "one-outlier", "step-within-5-percent"],
)
def test_speed_drift(qps, drift):
    assert bench_record.speed_drift(qps) is drift
