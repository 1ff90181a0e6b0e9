"""Committed benchmark records hold what a before/after comparison needs.

Every ``BENCH_<n>.json`` from ``BENCH_20.json`` on records, for each
workload and end-to-end metric that ``BENCHMARK.json`` declares, the
parent's and the change's runs with their median and quartiles, the
seeds it ran, and the machine with its python and numpy versions.
``BENCHMARK.json`` is only read.
"""

import glob
import json
import os
import re
import statistics

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIRST_CHECKED = 20


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _records():
    found = {}
    for path in glob.glob(os.path.join(ROOT, "BENCH_*.json")):
        match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if match and int(match.group(1)) >= FIRST_CHECKED:
            found[int(match.group(1))] = path
    return [found[n] for n in sorted(found)]


RECORDS = _records()


def test_records_from_the_first_checked_one_exist():
    assert os.path.basename(RECORDS[0]) == f"BENCH_{FIRST_CHECKED}.json"


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_record_holds_every_declared_metric(path):
    declared = _load(os.path.join(ROOT, "BENCHMARK.json"))
    record = _load(path)
    machine = record["machine"]
    for key in ("python", "numpy"):
        assert isinstance(machine[key], str) and machine[key], key
    for workload in (w["name"] for w in declared["workloads"]):
        entry = record["workloads"][workload]
        seeds = entry["seeds"]
        assert seeds and all(isinstance(s, int) for s in seeds), workload
        for metric in (m["name"] for m in declared["end_to_end"]):
            for side in ("parent", "change"):
                where = f"{workload} {metric} {side}"
                stats = entry["metrics"][metric][side]
                runs = stats["runs"]
                assert runs, where
                assert stats["median"] == pytest.approx(
                    statistics.median(runs), rel=1e-12, abs=0.0), where
                assert stats["iqr"] == pytest.approx(
                    stats["q3"] - stats["q1"], rel=1e-12, abs=1e-15), where
