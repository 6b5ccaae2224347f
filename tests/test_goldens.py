"""Golden outputs: `wsn run` writes byte-identical log, trace and mirror files.

The sha256 of each file must match ``bench/goldens.json``, which the benchmark
regenerates (``python3 bench/run.py --update-goldens``); this test only reads it.
The benchmark's configs with ``hop_ms 0`` are pinned by constants kept here,
and their outputs must not change when the run's value caches empty and refill.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from helpers import empty_value_caches
from wsnmon import basestation, netsim
from wsnmon.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = {
    "desk": ROOT / "configs" / "desk.cfg",
    "minedemo": ROOT / "configs" / "minedemo.cfg",
    "batch-220": ROOT / "bench" / "configs" / "batch-220.cfg",
    "wide-lossy": ROOT / "bench" / "configs" / "wide-lossy.cfg",
}


# the sha256 of each output of a bench config run with its hop_ms line made
# `hop_ms 0`: every event of a round has one time, so the trace keeps emission
# order, cluster by cluster; the log and the mirror are those of the config
HOP_ZERO = {
    "batch-220": {
        "log": "7c439926cfc42b4075e6da59d8d635dc946866744c39276424c09b5b5f400bd9",
        "trace": "eb469b04771a568586affbe9799ae499901afb99283b33bcf619f9c10076d04a",
        "mirror": "851ae0071cd011d0735ddd620848cc25897dad9ae00bb364d01fc67dd73fe675",
    },
    "wide-lossy": {
        "log": "66a6904754924442d7bfd4aa7b0db066053de20cd524f6bd22cbfb57c2dc90c2",
        "trace": "b5c64fe42de8dfd88757f9fed326fb3f04579642fa9e77cc03a328e2568998c2",
        "mirror": "0a724ad0ae11fc4510b4d0e2a513c3e42d1095d854bad02b0b22f05ab7718798",
    },
}


def run_hashes(config: Path, tmp_path: Path, capsys) -> dict[str, str]:
    """The sha256 of each output of `wsn run` on ``config``."""
    files = {kind: tmp_path / f"run.{kind}" for kind in ("log", "trace", "mirror")}
    rc = main(["run", str(config), "--out", str(files["log"]),
               "--trace", str(files["trace"]), "--rewrite-latest", str(files["mirror"])])
    assert rc == 0, capsys.readouterr().err
    return {kind: hashlib.sha256(path.read_bytes()).hexdigest()
            for kind, path in files.items()}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_goldens(name, tmp_path, capsys):
    golden = json.loads((ROOT / "bench" / "goldens.json").read_text())["outputs"][name]
    assert run_hashes(CONFIGS[name], tmp_path, capsys) == golden


@pytest.mark.parametrize("name", sorted(HOP_ZERO))
def test_hop_zero_outputs_match_pins(name, tmp_path, capsys):
    text, count = re.subn(r"(?m)^hop_ms \d+$", "hop_ms 0", CONFIGS[name].read_text())
    assert count == 1
    config = tmp_path / f"{name}-hop0.cfg"
    config.write_text(text)
    assert run_hashes(config, tmp_path, capsys) == HOP_ZERO[name]


@pytest.mark.parametrize("name", ["batch-220", "wide-lossy"])
def test_value_caches_that_empty_and_refill_write_the_same_bytes(name, tmp_path, capsys,
                                                                 monkeypatch):
    """A run whose step tables and text caches keep at most 3 entries writes
    the log, trace and mirror of a run whose caches never empty: a cache only
    saves work. After every column, a text cache is within the bound and a
    step table within the bound plus that column's new steps."""
    sense_column, column_texts = netsim._sense_column, basestation._column_texts
    steps, texts = [], []  # per column sensed: (table size, its length); rendered: cache size

    def sensed(spec, truth, draws):
        values = sense_column(spec, truth, draws)
        steps.append((len(spec._sensed), len(draws)))
        return values

    def rendered(channel, cache, column):
        values = column_texts(channel, cache, column)
        texts.append(len(cache))
        return values

    monkeypatch.setattr(netsim, "_sense_column", sensed)
    monkeypatch.setattr(basestation, "_column_texts", rendered)

    def run(bound, tmp):
        monkeypatch.setattr(basestation, "_VALUE_CACHE_MAX", bound)
        monkeypatch.setattr(netsim, "_VALUE_CACHE_MAX", bound)
        steps.clear()
        texts.clear()
        tmp.mkdir()
        with empty_value_caches():
            return run_hashes(CONFIGS[name], tmp, capsys)

    unbounded = run(10**9, tmp_path / "unbounded")
    # a cache past 3 entries: bounded by 3, each empties and refills
    assert max(steps)[0] > 3 and max(texts) > 3
    assert run(3, tmp_path / "bounded") == unbounded
    assert max(texts) <= 3  # the seeded None counts
    assert all(size <= 3 + new for size, new in steps)
