"""Workload definitions: each one generates its `wsn` configs from a seed.

A workload is a topology/environment shape and its sizes. Every workload
runs both the batch commands (`wsn run --trace --rewrite-latest`, then
`wsn plotdata`) and a paced server (`wsn run --serve --pace`) with a
closed-loop client, so every end-to-end metric exists on every workload;
the shapes decide which layers carry the load. The program only ever sees
the generated config text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 1

#: Request mix of the serve phase, as (verb, weight in percent).
REQUEST_MIX = (("SNAPSHOT", 25), ("CLUSTER", 25), ("NODE", 40), ("ALERTS", 10))
#: requests that hold REQUEST_MIX exactly
MIX_BLOCK = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    heads: int
    leaves: int
    batch_rounds: int
    serve_rounds: int
    serve_period_ms: int
    plot_channel: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "batch-220",
            "220 nodes, walk drift on five channels, many rounds: walk replay in "
            "truth_at, record serialization, a large log to parse; paced rounds "
            "published to clients",
            heads=20, leaves=10, batch_rounds=300, serve_rounds=20, serve_period_ms=50,
            plot_channel="temp_c",
        ),
        Workload(
            "wide-lossy",
            "1200 nodes, scripted or no drift, 30% loss and outages, few rounds: "
            "sensing, NULLs, LINK_DROP lines, 1200-line mirror rewrites and "
            "responses, reading_for scans",
            heads=60, leaves=19, batch_rounds=30, serve_rounds=8, serve_period_ms=150,
            plot_channel="co_ppm",
        ),
    )
}


def node_ids(heads: int, leaves: int) -> list[tuple[str, list[str]]]:
    return [(f"N{h}", [f"{h}.{l}" for l in range(1, leaves + 1)]) for h in range(1, heads + 1)]


def make_config(workload: Workload, seed: int, serve: bool) -> str:
    """Config text for one workload and seed; identical inputs give identical text.

    The serve variant keeps the topology and environment but runs
    ``serve_rounds`` short paced rounds instead of ``batch_rounds``.
    """
    rng = random.Random(f"{workload.name}/{seed}")
    clusters = node_ids(workload.heads, workload.leaves)
    lines = [f"# generated: workload {workload.name}, seed {seed}",
             f"radio 30 {0.3 if workload.name == 'wide-lossy' else 0.05}"]
    lines += ["cluster " + " ".join([head, *leaves]) for head, leaves in clusters]
    rounds = workload.serve_rounds if serve else workload.batch_rounds
    if serve:
        lines += [f"rounds {rounds}", f"period_ms {workload.serve_period_ms}", "hop_ms 1"]
    else:
        lines += [f"rounds {rounds}", "period_ms 1000", "hop_ms 10"]
    lines.append(f"seed {rng.randrange(1, 2**31)}")

    # The seed moves values and places, never the amount of work: alerts are
    # driven by sensor noise (walk) or by scripts that cross their thresholds
    # the same number of times and end in the same state for every seed.
    if workload.name == "batch-220":
        co = rng.randrange(8, 20)
        lines += [
            f"env temp_c {rng.uniform(18, 26):.2f} walk 0.05",
            f"env light_raw {rng.randrange(300, 700)} walk 8",
            f"env ch4_ppm {rng.randrange(500, 1500)} walk 40",
            f"env co_ppm {co} walk 0.05",
            "env o2_pct 20.9 walk 0.05",
            f"alert co_high co_ppm GT {co + 3} WARN",
            "alert o2_low o2_pct LT 20.5 DANGER",
        ]
    else:  # wide-lossy
        points = range(0, rounds, max(1, rounds // 8))

        def script(low: tuple[int, int], high: tuple[int, int]) -> str:
            """Breakpoints alternating between the two ranges, the last one high."""
            spans = [high if (len(points) - 1 - i) % 2 == 0 else low for i in range(len(points))]
            return ",".join(f"{r}:{rng.randrange(*span)}" for r, span in zip(points, spans))

        lines += [
            f"env temp_c {rng.uniform(15, 22):.2f} script 0:{rng.uniform(15, 22):.2f},"
            f"{rounds // 2}:{rng.uniform(22, 30):.2f}",
            f"env light_raw {rng.randrange(20, 80)}",
            f"env ch4_ppm 900 script {script((500, 8000), (12000, 15000))}",
            f"env co_ppm {rng.randrange(5, 20)}",
            f"env o2_pct 20.9 script {script((16, 18), (21, 23))}",
            "alert ch4_high ch4_ppm GT 10000 DANGER",
            "alert co_high co_ppm GT 30 WARN",
            "alert o2_low o2_pct LT 19.5 DANGER",
        ]
        heads = rng.sample(clusters, 4)
        first = rng.randrange(0, rounds // 2)
        lines.append(f"fail BS {heads[0][0]} {first} {first + rounds // 4}")
        for head, leaves in heads[1:]:
            leaf = rng.choice(leaves)
            src, dst = (head, leaf) if rng.random() < 0.5 else (leaf, head)
            start = rng.randrange(0, rounds - rounds // 4)
            lines.append(f"fail {src} {dst} {start} {start + rounds // 8}")
    return "\n".join(lines) + "\n"


def request_stream(seed: int, connection: int, heads: list[str], sensing: list[str]):
    """Endless, seeded request lines for one client connection.

    Verbs are dealt from a shuffled deck of MIX_BLOCK cards that holds the mix
    exactly, so every block of MIX_BLOCK requests from the start holds the
    same verbs, for every seed and connection.
    """
    rng = random.Random(f"requests/{seed}/{connection}")
    deck = [verb for verb, weight in REQUEST_MIX for _ in range(weight * MIX_BLOCK // 100)]
    while True:
        rng.shuffle(deck)
        for verb in deck:
            if verb == "NODE":
                yield f"NODE {rng.choice(sensing)}"
            elif verb == "CLUSTER":
                yield f"CLUSTER {rng.choice(heads)}"
            else:
                yield verb
