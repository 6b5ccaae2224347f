"""What one invocation reports: metrics, fingerprints, checks; shared file names."""

from __future__ import annotations

import json
from pathlib import Path

from oracles import sha256
from workloads import DEFAULT_SEED, Workload, make_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDENS = BENCH / "goldens.json"


class Tally:
    """Operations attempted and failed, with what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    def child(self, what: str, child) -> None:
        self.check(what, [] if child.exit_code == 0 else [f"exit code {child.exit_code}"])


class Report:
    """Metrics, fingerprints and notes of one invocation."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str]] = {}
        self.fingerprints: dict[str, dict[str, str]] = {}
        self.notes: list[str] = []
        self.tally = Tally()

    def outputs(self, name: str, work: Path, files: dict[str, str], check_golden: bool) -> None:
        """Fingerprint output files and, when asked, compare them to the goldens."""
        hashes = {kind: sha256(work / f) for kind, f in files.items()}
        self.fingerprints[name] = hashes
        if check_golden:
            golden = json.loads(GOLDENS.read_text())["outputs"].get(name)
            self.tally.check(f"golden {name}",
                             [] if golden == hashes else [f"{hashes} != golden {golden}"])

    def same_outputs(self, what: str, a: str, b: str) -> None:
        """Two fingerprinted runs must have written byte-identical files."""
        self.tally.check(what, [] if self.fingerprints[a] == self.fingerprints[b]
                         else [f"{a} {self.fingerprints[a]} != {b} {self.fingerprints[b]}"])


def batch_args(cfg: str, prefix: str) -> list[str]:
    """`wsn run` arguments of the batch phase: log, trace and mirror."""
    return ["run", cfg, "--out", f"{prefix}.log", "--trace", f"{prefix}.trace",
            "--rewrite-latest", f"{prefix}.latest"]


def batch_files(prefix: str) -> dict[str, str]:
    return {"log": f"{prefix}.log", "trace": f"{prefix}.trace", "mirror": f"{prefix}.latest"}


def write_configs(w: Workload, seed: int, work: Path, report: Report) -> tuple[str, str]:
    """Write the batch and serve configs; at the default seed they must match the stored ones."""
    texts = (make_config(w, seed, serve=False), make_config(w, seed, serve=True))
    for text, suffix in zip(texts, ("", "-serve")):
        (work / f"{w.name}{suffix}.cfg").write_text(text)
        if seed == DEFAULT_SEED:
            stored = (BENCH / "configs" / f"{w.name}{suffix}.cfg").read_text()
            report.tally.check(f"generated config {w.name}{suffix}",
                               [] if stored == text else ["differs from the stored config"])
    return texts
