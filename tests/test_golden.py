"""CLI output against golden files.

Each case in golden/cases.json is replayed through ``python -m braidrev``;
its stdout must equal golden/<name>.stdout byte for byte, with the same
exit code and nothing on stderr.  A refactor that changes any printed
value fails here.  ``{golden}`` in an argument names this directory.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_cli_output_unchanged(case):
    args = [arg.replace("{golden}", str(GOLDEN)) for arg in case["args"]]
    result = subprocess.run([sys.executable, "-m", "braidrev", *args],
                            capture_output=True, timeout=300)
    assert result.returncode == case["exit"]
    assert result.stderr == b""
    assert result.stdout == (GOLDEN / f"{case['name']}.stdout").read_bytes()
