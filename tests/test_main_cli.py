"""Top-level CLI tests (fast paths; training uses tiny budgets)."""

import json
import os

import pytest

from repro import backends, obs
from repro.cli import main


def test_hw_report(capsys):
    assert main(["hw-report", "--precision", "pow2"]) == 0
    out = capsys.readouterr().out
    assert "Powers of Two (6,16)" in out
    assert "buffers:" in out


def test_energy(capsys):
    assert main(["energy", "--network", "lenet"]) == 0
    out = capsys.readouterr().out
    assert "Binary Net (1,16)" in out
    assert "Energy uJ" in out


def test_export_rtl_stdout(capsys):
    assert main(["export-rtl", "--precision", "binary",
                 "--neurons", "2", "--synapses", "2"]) == 0
    out = capsys.readouterr().out
    assert "module wb_binary_16" in out
    assert "module nfu_binary_2x2" in out


def test_export_rtl_file(tmp_path, capsys):
    path = str(tmp_path / "nfu.v")
    assert main(["export-rtl", "--precision", "fixed8", "--output", path,
                 "--neurons", "2", "--synapses", "2"]) == 0
    assert os.path.exists(path)
    with open(path) as handle:
        assert "wb_fixed_8x8" in handle.read()


def test_train_and_evaluate_roundtrip(tmp_path, capsys):
    weights = str(tmp_path / "w.npz")
    code = main([
        "train", "--network", "lenet_small", "--n-train", "200",
        "--n-test", "100", "--epochs", "2", "--output", weights,
    ])
    assert code == 0
    assert os.path.exists(weights)
    out = capsys.readouterr().out
    assert "float32 test accuracy" in out

    code = main([
        "evaluate", "--network", "lenet_small", "--weights", weights,
        "--n-train", "200", "--n-test", "100",
        "--precisions", "float32", "fixed8",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Fixed-Point (8,8)" in out


def test_train_with_qat(tmp_path, capsys):
    code = main([
        "train", "--network", "lenet_small", "--n-train", "200",
        "--n-test", "100", "--epochs", "2", "--precision", "binary",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Binary Net (1,16) test accuracy" in out


def test_profile_prints_per_layer_table(capsys):
    code = main([
        "profile", "--network", "lenet_small", "--precision", "fixed8",
        "--limit", "16", "--calibration", "16",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "profile: lenet_small" in out
    assert "Fixed-Point (8,8)" in out
    for needle in ("layer", "fwd ms", "MFLOPs", "KB moved", "quant_rms",
                   "TOTAL"):
        assert needle in out, needle


def test_profile_accepts_spec_strings(capsys):
    code = main([
        "profile", "--network", "lenet_small", "--precision", "fixed:4:8",
        "--limit", "8", "--calibration", "8",
    ])
    assert code == 0
    assert "Fixed-Point (4,8)" in capsys.readouterr().out


def test_profile_json_output(capsys):
    code = main([
        "profile", "--network", "lenet_small", "--precision", "fixed8",
        "--limit", "8", "--calibration", "8", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["network"] == "lenet_small"
    assert payload["precision"] == "fixed8"
    assert payload["images"] == 8
    assert payload["total_flops"] > 0
    assert payload["total_bytes"] > 0
    layers = {row["name"]: row for row in payload["layers"]}
    conv_rows = [row for row in payload["layers"]
                 if row["layer_type"] == "Conv2D"]
    assert conv_rows and all(row["flops"] > 0 for row in conv_rows)
    assert any("quant_rms" in row for row in layers.values())
    assert "histograms" in payload["metrics"]


def test_profile_runs_a_per_layer_spec_at_its_widths(capsys):
    """conv1 at 2 bits: its weight RMS and bytes are its own, not the
    widest layer's (fixed8's)."""
    rows = {}
    for key in ("fixed:2,4,8,8:8", "fixed8"):
        assert main([
            "profile", "--network", "lenet_small", "--precision", key,
            "--limit", "8", "--calibration", "8", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["precision"] == key
        rows[key] = {row["name"]: row for row in payload["layers"]}
    layered, fixed8 = rows["fixed:2,4,8,8:8"], rows["fixed8"]
    assert layered["conv1"]["quant_rms"] > 10 * fixed8["conv1"]["quant_rms"]
    assert layered["conv1"]["bytes_moved"] < fixed8["conv1"]["bytes_moved"]
    # the 8-bit layers match fixed8 exactly
    for name in ("ip1", "ip2"):
        assert layered[name]["quant_rms"] == fixed8[name]["quant_rms"]
        assert layered[name]["bytes_moved"] == fixed8[name]["bytes_moved"]


@pytest.mark.parametrize("argv", [
    ["profile", "--precision", "fixed:2,4,8,8:8", "--sim"],
    ["simulate", "--precision", "fixed:2,4,8,8:8"],
])
def test_simulating_a_per_layer_spec_is_a_usage_error(argv, capsys):
    """The simulator runs one datapath width at a time, so it refuses a
    per-layer spec rather than price it at its widest width."""
    assert main(argv + ["--network", "lenet_small"]) == 2
    assert capsys.readouterr().err.startswith("error: precision:")


def test_profile_times_the_backend_it_names(capsys):
    fallbacks = obs.get_metrics().counter("kernels.fused.fallback_units")
    before = fallbacks.value
    assert main(["profile", "--backend", "fused", "--network", "lenet_small",
                 "--precision", "fixed8", "--limit", "8", "--calibration", "8",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # every unit of the timed pass ran its fused kernel
    assert fallbacks.value == before
    assert payload["kernels_parity"] is True
    assert payload["total_flops"] == 3550160
    assert payload["total_bytes"] == 328426
    assert "profile.forward_ms.conv1" in payload["metrics"]["histograms"]
    assert [row["kind"] for row in payload["layers"][:2]] == ["quant", "conv"]
    assert all(row["calls"] == 1 for row in payload["layers"])


def test_profile_on_the_reference_backend(capsys):
    environment = dict(os.environ)
    assert main(["profile", "--backend", "reference", "--limit", "8",
                 "--calibration", "8"]) == 0
    out = capsys.readouterr().out
    assert "reference backend" in out and "TOTAL" in out
    # the flag names this run's backend and nothing else's: no process
    # default moved, and nothing was written for child processes
    assert backends.resolve(None).name == "fused"
    assert dict(os.environ) == environment


@pytest.mark.parametrize("command, flag, value", [
    ("sweep", "backend", "fused"),
    ("serve-bench", "backend", "fused"),
    ("serve-bench", "routing", "hash"),
])
def test_only_profile_names_a_backend_and_a_fleet_has_one_queue(
    command, flag, value, capsys
):
    with pytest.raises(SystemExit) as exit_info:
        main([command, f"--{flag}", value])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_train_with_a_negative_seed_is_a_usage_error(capsys):
    assert main(["train", "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: seed:")


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_unknown_network_rejected():
    with pytest.raises(SystemExit):
        main(["energy", "--network", "resnet"])
