"""The benchmark records ``scripts/bench_record.py`` writes: every
``BENCH_*.json`` at the root of the repository parses and names only the
end-to-end metrics of ``BENCHMARK.json``, with their units, and the
script's summary reads each side's quartiles and the pairs won in each
metric's own direction."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = {spec["name"]: spec for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_committed_record_names_only_end_to_end_metrics():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text())
        assert record["workload"] in {"random-lts", "subset-blowup", "cli-mixed"}, path.name
        runs = record["runs"]["base"] + record["runs"]["change"]
        assert len(record["runs"]["base"]) == len(record["runs"]["change"]) == len(record["seeds"])
        for run in runs:
            assert run["metrics"].keys() <= END_TO_END.keys(), path.name
            assert all(m["unit"] == END_TO_END[name]["unit"] for name, m in run["metrics"].items()), path.name
        assert record["summary"].keys() <= END_TO_END.keys(), path.name
        for name, s in record["summary"].items():
            assert (s["unit"], s["better"]) == (END_TO_END[name]["unit"], END_TO_END[name]["better"]), path.name
            for side in ("base", "change"):
                assert s[side]["q1"] <= s[side]["median"] <= s[side]["q3"], (path.name, name)
            assert 0 <= s["change_wins"] <= len(record["seeds"])


def test_summary_counts_wins_in_each_metric_direction():
    def run(batch, share):
        metrics = {"batch_s": {"value": batch, "unit": "s"}, "decided_share": {"value": share, "unit": "ratio"}}
        return {"metrics": metrics}

    specs = [END_TO_END["batch_s"], END_TO_END["decided_share"]]
    base = [run(b, 1.0) for b in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [run(b, s) for b, s in ((0.5, 1.0), (2.5, 0.9), (2.0, 1.0), (4.0, 1.0), (1.0, 1.0))]
    out = bench_record().summary(specs, base, change)
    assert out["batch_s"]["base"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert out["batch_s"]["change"] == {"q1": 1.0, "median": 2.0, "q3": 2.5}
    # lower is better for time, a tie wins for neither side
    assert out["batch_s"]["change_wins"] == 3
    # higher is better for the decided share, so nothing was won
    assert out["decided_share"]["change_wins"] == 0
    assert out["decided_share"]["unit"] == "ratio"
