"""Byte identity as a standing check: tools/result_digests.py's configurations,
run in this process, must write the result files recorded in
result_digests.sha.  The bytes depend on numpy and the BLAS library, so a
failure names the numpy version the list was recorded with; a change that
moves a result re-records the list with the tool in the same diff."""

import importlib.util
import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RECORDED = ROOT / "tests" / "result_digests.sha"


def _tool():
    spec = importlib.util.spec_from_file_location("result_digests",
                                                  ROOT / "tools" / "result_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_results_match_the_recorded_digests(tmp_path):
    text = RECORDED.read_text()
    recorded = [line for line in text.splitlines() if not line.startswith("#")]
    numpy_version = re.search(r"recorded with numpy (\S+)", text).group(1)
    lines = _tool().digest_lines(tmp_path)
    moved = sorted(set(lines) ^ set(recorded))
    assert lines == recorded, (
        f"result files differ from {RECORDED.name}, recorded with numpy {numpy_version} "
        f"(this run: numpy {np.__version__}); lines in only one of the two:\n"
        + "\n".join(moved))
