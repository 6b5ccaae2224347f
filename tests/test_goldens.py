"""Golden outputs: `wsn run` writes byte-identical log, trace and mirror files.

The sha256 of each file must match ``bench/goldens.json``, which the benchmark
regenerates (``python3 bench/run.py --update-goldens``); this test only reads it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from wsnmon.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = {
    "desk": ROOT / "configs" / "desk.cfg",
    "minedemo": ROOT / "configs" / "minedemo.cfg",
    "batch-220": ROOT / "bench" / "configs" / "batch-220.cfg",
    "wide-lossy": ROOT / "bench" / "configs" / "wide-lossy.cfg",
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_goldens(name, tmp_path, capsys):
    files = {kind: tmp_path / f"run.{kind}" for kind in ("log", "trace", "mirror")}
    rc = main(["run", str(CONFIGS[name]), "--out", str(files["log"]),
               "--trace", str(files["trace"]), "--rewrite-latest", str(files["mirror"])])
    assert rc == 0, capsys.readouterr().err
    hashes = {kind: hashlib.sha256(path.read_bytes()).hexdigest()
              for kind, path in files.items()}
    golden = json.loads((ROOT / "bench" / "goldens.json").read_text())["outputs"][name]
    assert hashes == golden
