import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_commands.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_commands", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_case_reports_its_own_process():
    # one README command in a fresh process: its exit code, its stdout's
    # digest (pinned in test_cli's PINNED_STDOUT) and its own measurements
    tool = _tool()
    args = ["growth", "--g", "n^2", "--n-max", "100000", "check"]
    assert args in tool.commands()
    record = tool.run_case(args)
    assert record["command"] == " ".join(args) and record["exit_code"] == 0
    assert record["stdout_sha256"] == \
        "27b1ec9de3165e90e0f48f388091ab8065c0c6fa3ad99522589442c4185b8f6d"
    assert record["wall_s"] > 0 and 0 < record["peak_rss_mb"] < 1024
