"""``benchmarks/run_trajectory.py``: a partial run rewrites only what it
measured and keeps every other committed block."""

from __future__ import annotations

import importlib.util
import json
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / (
    "run_trajectory.py"
)


def load_script():
    spec = importlib.util.spec_from_file_location("run_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_skipped_blocks_keep_their_committed_rows(tmp_path, monkeypatch):
    trajectory = load_script()
    committed = {
        "generated": "then", "backend": "numpy", "sizes": [100, 200],
        "solo": [{"kind": "fixed", "size": 100}],
        "allocations": [{"kind": "fixed", "size": 100}],
        "service": {"speedup": 2.0},
        "durability": {"journal_overhead_pct": 185.8},
        "cluster": {"owned": "elsewhere"},
    }
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps(committed))
    monkeypatch.setattr(
        trajectory, "bench_durability",
        lambda kind, n, requests: {
            "size": n, "requests": requests - 1, "in_memory_s": 1.0,
            "admission_overhead_pct": 0.1, "journal_overhead_pct": 9.9,
            "journal_fsync_overhead_pct": 12.0, "journal_records": 24,
            "journal_mb": 0.5,
        },
    )
    assert trajectory.main([
        "--skip-solo", "--skip-alloc", "--skip-service",
        "--service-size", "30", "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    for key in ("generated", "backend", "sizes", "solo", "allocations",
                "service", "cluster"):
        assert doc[key] == committed[key], key
    assert doc["durability"]["journal_overhead_pct"] == 9.9
    assert doc["durability"]["size"] == 30
    assert doc["durability"]["backend"]
    assert [k for k in doc if k in committed] == list(committed)  # order kept
