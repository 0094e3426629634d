import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_probe_reports_each_phase_and_op(capsys):
    probe = load_tool("step_probe")
    assert probe.main(["--plan", "4,8", "--points", "32", "--batch", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("plan 4,8, feature_reduce 64, 4 parts, float32, "
                        "batch 2 x 32 points")
    labels = [line.split()[0] for line in lines[1:]]
    assert labels[:2] == ["forward", "backward"]
    assert labels[-3:] == ["adam", "traced", "max"]
    ops = labels[2:-3]
    assert {"pooled_rung", "channel_window_max", "batch_norm_relu", "matmul",
            "other"} <= set(ops)
    assert ops[-1] == "other"
    figures = [float(line.split()[-2]) for line in lines[1:]]
    assert all(figure >= 0 for figure in figures)
    assert figures[-2] > 0 and figures[-1] > 0  # traced peak, max RSS
