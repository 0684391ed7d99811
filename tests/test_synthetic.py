import os
import subprocess
import sys
from pathlib import Path

import demandcast

ASSETS = Path(demandcast.__file__).resolve().parent / "assets"


def test_generator_reproduces_bundled_sample(tmp_path):
    # The bundled sample is the generator's default output, byte for byte.
    out = tmp_path / "sample_sales.csv"
    src = str(Path(demandcast.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "demandcast.synthetic", "--out", str(out)],
        env=env,
        capture_output=True,
        check=True,
    )
    assert out.read_bytes() == (ASSETS / "sample_sales.csv").read_bytes()
