import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_desk_script_smoke():
    # the script calls sieve, pipeline, model and fit APIs that unit tests reach one by one
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_desk_pipeline.py"),
         "--limit", "1e6", "--start", "1e4"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("m0 law:") for line in proc.stdout.splitlines())
