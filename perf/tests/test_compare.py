import json
from pathlib import Path

from compare import compare, digest_verdict, load_runs, verdict

SPEC = {"end_to_end": [
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.1},
]}


def test_verdicts_follow_the_bound():
    base = [100.0, 101.0, 99.0, 100.0]
    assert verdict(base, [102.0, 103.0, 101.0, 102.0], "lower", 0.1) == "unchanged"
    assert verdict(base, [120.0, 121.0, 119.0, 120.0], "lower", 0.1) == "worse"
    assert verdict(base, [80.0, 81.0, 79.0, 80.0], "lower", 0.1) == "better"
    # Higher-is-better metrics flip the direction.
    assert verdict(base, [80.0, 81.0, 79.0, 80.0], "higher", 0.1) == "worse"
    assert verdict(base, [120.0, 121.0, 119.0, 120.0], "higher", 0.1) == "better"


def test_a_wide_spread_is_unresolved_unless_the_sides_separate():
    noisy = [70.0, 100.0, 130.0, 115.0, 85.0]
    assert verdict(noisy, [125.0, 126.0, 124.0, 125.0], "lower", 0.1) == "unresolved"
    assert verdict([100.0, 100.5, 99.5], noisy, "lower", 0.1) == "unresolved"
    # Every new run beats every base run: resolved despite the noise.
    assert verdict(noisy, [20.0, 21.0, 22.0, 23.0], "lower", 0.1) == "better"
    assert verdict(noisy, [220.0, 221.0, 222.0], "lower", 0.1) == "worse"


def _run(seed, digest, latency=100.0, throughput=50.0, failed=0.0):
    return {"workload": "w", "seed": seed, "outputs_digest": digest,
            "metrics": {"latency_p50_ms": latency,
                        "throughput_per_s": throughput},
            "shares": {"failed_share": failed}}


def test_digests_are_compared_per_seed():
    assert digest_verdict([_run(1, "a")], [_run(1, "a")]) == "match"
    assert digest_verdict([_run(1, "a")], [_run(1, "b")]) == "MISMATCH"
    assert digest_verdict([_run(1, "a"), _run(2, "c")],
                          [_run(2, "c")]) == "match"
    assert digest_verdict([_run(1, "a")], [_run(2, "b")]) == "no common seed"


def test_exit_status():
    lines = []
    same = {"w": [_run(1, "a"), _run(1, "a", latency=101.0)]}
    assert compare(same, {"w": [_run(1, "a")]}, SPEC, out=lines.append) == 0
    assert compare(same, {"w": [_run(1, "b")]}, SPEC, out=lines.append) == 1
    assert any("MISMATCH" in line for line in lines)
    slower = {"w": [_run(1, "a", latency=150.0)]}
    assert compare(same, slower, SPEC, out=lines.append) == 1
    failing = {"w": [_run(1, "a", failed=0.1)]}
    assert compare(same, failing, SPEC, out=lines.append) == 1
    # A noisy, unresolved metric is reported but does not fail.
    noisy = {"w": [_run(1, "a", throughput=t) for t in (20.0, 50.0, 90.0)]}
    lines.clear()
    assert compare(same, noisy, SPEC, out=lines.append) == 0
    assert any("unresolved" in line for line in lines)


def test_load_runs_finds_results_recursively(tmp_path: Path):
    (tmp_path / "r1").mkdir()
    (tmp_path / "r2").mkdir()
    (tmp_path / "r1" / "w.json").write_text(json.dumps(_run(1, "a")))
    (tmp_path / "r2" / "w.json").write_text(json.dumps(_run(2, "b")))
    (tmp_path / "r2" / "w.trace.json").write_text(json.dumps({"workload": "w"}))
    runs = load_runs(tmp_path)
    assert [run["seed"] for run in runs["w"]] == [1, 2]
