import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_loopback_demo_fetches_every_frame(tmp_path):
    """scripts/run_loopback_demo.py: 8 servers, one scan, a depth and a color file each."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, str(ROOT / "scripts" / "run_loopback_demo.py"),
                    "--out", str(tmp_path)], env=env, check=True, timeout=120,
                   capture_output=True)
    fetched = [p for p in tmp_path.rglob("*") if p.suffix in (".pgm", ".ppm")]
    assert len(fetched) == 16
