"""Smoke test of the benchmark: every workload at a tiny size.

    python3 bench/smoke_test.py
    python3 -m pytest bench/smoke_test.py

Each workload runs once untraced and once traced. The test checks that
the last line of output names exactly the metrics ``BENCHMARK.json``
declares, that every check passed, and that the full record carries the
workload's named metrics. A last test makes some ``serve`` requests
raise and others return a wrong score, and checks that the run still
ends with a result that counts each of them as a failed op.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

NAMED = {
    "embed": ("train_embeddings_s", "embed_windows_per_s"),
    "train": ("train_scorer_s", "train_tokens_per_s", "evaluate_s"),
    "serve": ("serve_essays_per_s", "score_ms_p50", "score_ms_tail",
              "explain_ms_p50", "explain_ms_tail"),
}
COMMON = ("setup_s", "peak_rss_mb", "failed_ratio", "op_ms_p50", "op_ms_tail",
          "setup_s_raw", "items_per_s_raw", "op_ms_raw", "reference_ms_p50")


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec


def run_tiny(workload: str, trace: int) -> tuple[dict, dict]:
    spec = declared()
    out = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record_path = ROOT / ".bench_work" / "results" / \
        f"{workload}-seed1-trace{trace}.json"
    record = json.loads(record_path.read_text(encoding="utf-8"))
    return result, record


@pytest.mark.parametrize("workload", sorted(NAMED))
@pytest.mark.parametrize("trace", (0, 1))
def test_workload_emits_every_metric(workload, trace):
    spec = declared()
    result, record = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    for name in COMMON + NAMED[workload]:
        assert name in record["named_metrics"], name
    if trace and workload == "serve":
        layers = result["metrics"]
        assert layers["saliency.passes_per_map"]["value"] == 5
        assert layers["lstm.fwd_calls"]["value"] > 0
    assert record["artifact_sha256"]


def test_serve_counts_failed_requests(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import workloads

    original = workloads.ServeWorkload.run_op

    def flaky(self, k, span):
        res = original(self, k, span)
        if k % 3 == 0:
            raise RuntimeError("request failed")
        if k % 3 == 1:
            essay, pred, *rest = res.payload
            res.payload = (essay, pred + 0.5, *rest)
        return res

    monkeypatch.setattr(workloads.ServeWorkload, "run_op", flaky)
    rc = run.main(["--workload", "serve", "--seed", "1", "--seconds", "1",
                   "--trace", "0", "--size", "tiny"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    attempted = result["attempted"]
    assert result["failed"] == attempted - attempted // 3


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
