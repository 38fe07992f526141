"""Smoke tests of the ledger itself (1 s windows, ``--smoke``).

One full-form run feeds most assertions: every name in
``BENCHMARK.json`` is emitted exactly once per workload with its unit,
trace files are well formed, the summary claims nothing.  Separate tests
corrupt an answer and expect the run to fail, and exercise
``compare.py`` on doctored ledgers.
"""

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ledger import compare
from ledger.workloads import WORKLOADS, Echo, Enactment, Frame
from repro.ws.service import operation

ROOT = Path(__file__).resolve().parent.parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "ledger" / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _driver(workload, trace, out, seed=3):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--smoke", "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger")
    done = subprocess.run(
        RUN + ["--seed", "3", "--seconds", "1", "--smoke", "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return done.stdout, out, json.loads((out / "ledger.json").read_text())


def test_contract_names_units_and_counts():
    assert CONTRACT["workloads"] == [
        {"name": name, "why": cls.why} for name, cls in WORKLOADS.items()]
    assert all(len(w["why"]) <= 200 for w in CONTRACT["workloads"])
    names = [m["name"] for section in ("end_to_end", "per_layer")
             for m in CONTRACT[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert len(CONTRACT["end_to_end"]) <= 16
    assert len(CONTRACT["per_layer"]) <= 128
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and \
        setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


def test_every_metric_emitted_once_with_its_unit(full_run):
    stdout, _out, ledger = full_run
    lines = [line.split() for line in stdout.splitlines()]
    for workload in WORKLOADS:
        entry = ledger["workloads"][workload]
        assert entry["correct"] and entry["failed"] == 0
        assert entry["extra"]["failed_share"] == [0.0]
        for section in ("end_to_end", "per_layer"):
            wanted = {m["name"]: m["unit"] for m in CONTRACT[section]}
            got = {name: metric["unit"]
                   for name, metric in entry[section].items()}
            assert got == wanted
            for name, unit in wanted.items():
                printed = [line for line in lines
                           if line[:2] == [workload, name]]
                assert len(printed) == 1, (workload, name)
                assert printed[0][-1] == unit
                assert isinstance(entry[section][name]["value"], float)
        # only the no-op call has the samples a 99th percentile needs,
        # and a 1 s window has them for nobody
        assert "latency_p99_ms" not in entry["extra"]
    assert ledger["summary"] == {"correct": True, "claim": None}
    assert ledger["fingerprint"]["cpu_count"] >= 1


def test_result_line_has_exactly_the_contract_keys(tmp_path):
    result = _driver("noop_call", 0, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == \
        {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(set(m) == {"value", "unit"}
               for m in result["metrics"].values())
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_trace_files_have_parent_links_and_one_trace_per_op(full_run):
    _stdout, out, _ledger = full_run
    for workload in WORKLOADS:
        spans = json.loads(
            (out / f"trace_{workload}.json").read_text())["spans"]
        assert spans
        roots = [s for s in spans if s["parent"] == -1]
        assert len({s["trace"] for s in roots}) == len(roots)
        assert {s["trace"] for s in spans} == {s["trace"] for s in roots}
        for span in spans:
            assert span["end"] >= span["start"]
            if span["parent"] == -1:
                continue
            parent = spans[span["parent"]]
            assert parent["id"] < span["id"]
            assert parent["trace"] == span["trace"]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
        ops = [s for s in roots if s["name"] == "op"]
        assert ops, "no operation was traced"
        for op in ops[:20]:
            children = {s["name"] for s in spans
                        if s["parent"] == op["id"]}
            assert {"input", "first", "repeat", "check"} <= children


def test_wire_bytes_repeat_exactly_for_equal_seeds(full_run, tmp_path):
    _stdout, _out, ledger = full_run
    again = _driver("case_study", 0, tmp_path, seed=3)
    assert again["metrics"]["wire_bytes_per_op"]["value"] == \
        ledger["workloads"]["case_study"]["end_to_end"][
            "wire_bytes_per_op"]["value"]


def test_corrupted_token_fails_the_run(monkeypatch):
    from ledger import run

    @operation
    def ping(self, token: str) -> str:
        """A server that answers every tenth token wrongly."""
        return token + "?" if token.endswith("7") else token
    monkeypatch.setattr(Echo, "ping", ping)
    result = run.run_untraced(WORKLOADS["noop_call"](seed=5), 0.5,
                              smoke=True)
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert 0.05 < result["extra"]["failed_share"] < 0.15

    @operation
    def deaf(self, token: str) -> str:
        """A server that never answers rightly."""
        return "?"
    monkeypatch.setattr(Echo, "ping", deaf)
    with pytest.raises(RuntimeError, match="nothing to report"):
        run.run_untraced(WORKLOADS["noop_call"](seed=5), 0.5, smoke=True)


def test_wrong_label_and_wrong_tree_are_rejected():
    bulk = WORKLOADS["bulk_shm"](seed=5)
    item = bulk.make_input(0)
    right = {"labels": [item.majority] * 256, "errors": []}
    assert bulk.check(item, right)
    other = "pos" if item.majority == "neg" else "neg"
    assert not bulk.check(
        item, dict(right, labels=[other] + [item.majority] * 255))
    assert not bulk.check(item, dict(right, errors=[[0, "bad row"]]))
    assert not bulk.check(Frame(item.data, other), right)

    case = WORKLOADS["case_study"](seed=5)
    item = Enactment(0, "repo:ledger-0")
    assert case.expected_root(0) == "node-caps"  # the paper's Figure 4
    assert case.check(item, "<svg><text>node-caps</text></svg>")
    assert not case.check(item, "<svg><text>age</text></svg>")
    assert not case.check(item, "not an svg")


def _doctored(ledger, workload, metric, factor):
    other = copy.deepcopy(ledger)
    entry = other["workloads"][workload]["end_to_end"][metric]
    entry["runs"] = [v * factor for v in entry["runs"]]
    entry["value"] *= factor
    return other


def test_compare_verdicts(full_run, tmp_path, capsys):
    _stdout, out, ledger = full_run
    base = out / "ledger.json"
    assert compare.main([str(base), str(base)]) == 0
    assert "0 regressed" in capsys.readouterr().out

    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps(
        _doctored(ledger, "noop_call", "latency_p50_ms", 1.2)))
    assert compare.main([str(base), str(slow)]) == 1
    table = capsys.readouterr().out
    assert re.search(r"noop_call\s+latency_p50_ms.*1\.200.*regressed",
                     table)
    # a gain is not a regression
    fast = tmp_path / "fast.json"
    fast.write_text(json.dumps(
        _doctored(ledger, "noop_call", "latency_p50_ms", 0.8)))
    assert compare.main([str(base), str(fast)]) == 0

    failing = copy.deepcopy(ledger)
    failing["workloads"]["bulk_shm"]["extra"]["failed_share"] = [0.01]
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(failing))
    assert compare.main([str(base), str(path)]) == 1
    capsys.readouterr()


def test_compare_reports_noise_as_unresolved():
    verdict, _, spread = compare.judge(
        [10, 11, 12, 13, 14], [11, 12, 13, 14, 15], "lower", 0.08)
    assert verdict == "unresolved" and spread > 0.08
    verdict, _, _ = compare.judge(
        [10, 11, 12, 13, 14], [20, 21, 22, 23, 24], "lower", 0.08)
    assert verdict == "regressed"  # spread is wide but nothing overlaps
    verdict, worse, _ = compare.judge(
        [100.0, 100.5, 101.0], [103.0, 103.2, 103.4], "higher", 0.08)
    assert verdict == "ok" and worse < 0
