"""The code-line tool runs and its rows add up."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_code_lines_total_is_the_sum_of_its_modules():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(ROOT / "src" / "gfkit")],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    rows = dict(line.split("\t") for line in out.splitlines())
    total = int(rows.pop("total"))
    assert "igf.py" in rows and all(int(n) > 0 for n in rows.values())
    assert total == sum(int(n) for n in rows.values())
