"""Every committed benchmark record at the root of the repository parses and
says what it measured, by which command, on which host, against which
parent commit: the measured-performance claims rest on these files."""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_bench_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_is_described(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    for key in ("what", "command", "host", "parent"):
        assert isinstance(record.get(key), str) and record[key].strip(), key
