"""Short runs of every workload against a real server subprocess."""

import json

import pytest

import layers
import run
from workloads import WORKLOADS, SmallSections

END_TO_END = ["write_p50_ms", "write_tail_ms", "read_p50_ms", "read_tail_ms",
              "sections_per_s", "wire_bytes_per_section", "setup_s",
              "server_peak_rss_mb", "client_peak_rss_mb"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_passes_the_correctness_check(name):
    result = run.run_one(name, seed=7, seconds=1.0, trace=False)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    assert sorted(result["metrics"]) == sorted(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer():
    result = run.run_one("small-sections", seed=7, seconds=2.0, trace=True)
    assert result["correct"], result
    metrics = result["metrics"]
    for layer in layers.LAYERS:
        assert f"budget.{layer}.self_ms_per_section" in metrics
    assert metrics["transport.requests_per_section"]["value"] == pytest.approx(1.5)
    assert metrics["server.diff_cache.hit_ratio"]["value"] == 1.0
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_same_seed_gives_same_inputs():
    first, second = SmallSections(3), SmallSections(3)
    assert first.model == second.model
    assert first.write_input(5) == second.write_input(5)
    assert first.write_input(5) != SmallSections(4).write_input(5)
    for name, cls in WORKLOADS.items():
        if name != SmallSections.name:
            a, b = cls(3).write_input(2), cls(3).write_input(2)
            assert all((x == y).all() for x, y in zip(a, b))


def test_a_read_that_disagrees_with_the_model_fails_the_run(monkeypatch, capsys):
    # the model never learns about the writes, so the first read mismatches
    monkeypatch.setattr(SmallSections, "commit", lambda self, inp: None)
    assert run.main(["--workload", "small-sections", "--seconds", "0.5"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] >= 1
