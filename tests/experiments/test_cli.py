"""Experiment CLI tests (hardware-only paths; trained paths are
exercised by the benchmark harness)."""

import pytest

from repro.experiments.__main__ import main


def test_cli_table3(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "Table III" in out
    assert "Binary Net (1,16)" in out


def test_cli_fig3(capsys):
    assert main(["fig3"]) == 0
    assert "Figure 3" in capsys.readouterr().out


def test_cli_memory(capsys):
    assert main(["memory"]) == 0
    out = capsys.readouterr().out
    assert "alex++" in out


def test_cli_rejects_unknown():
    with pytest.raises(SystemExit):
        main(["resnet"])


def test_cli_takes_no_backend(capsys):
    """Quantized forwards run on fused; no flag picks another."""
    with pytest.raises(SystemExit) as exit_info:
        main(["table3", "--backend", "fused"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
