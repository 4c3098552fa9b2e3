#!/usr/bin/env python3
"""Compare the benchmark of two checkouts in alternating pairs of runs.

Each pair runs `decidebench/run.py --trace 0` once in each checkout on the
same workload and seed (seed K + i for pair i), the first side alternating
from pair to pair so that a drift of the host's speed hits both sides alike.
For every end-to-end metric of the change's BENCHMARK.json the script prints
each side's median [Q1, Q3], the pairs the change won (in the direction of
the metric's `better`), and whether the gap between the medians exceeds the
parent's interquartile distance; then the failed operations of each side,
the corpus indices of the pairs that set `decide_tail_ref` and
`decide_p50_ref` in each side's last run, and that run's sum of per-pair
median times by outcome and by matrix size n, each with its share of the
total (the denominator of `pairs_per_kref`), read from the run's
`decidebench/results/<workload>-seed<seed>-trace0.json`.
It exits 1 when a run exits non-zero or prints no result line.

Usage: python scripts/bench_ab.py PARENT CHANGE --workload W --pairs N
           --seconds S --seed-base K
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(end_to_end: list[dict], parent: list[dict], change: list[dict]) -> list[dict]:
    """One row per end-to-end metric from paired run results (the last line
    of run.py, parsed): each side's quartiles, the pairs the change won, and
    whether the medians lie further apart than the parent's quartiles."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    rows = []
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pq, cq = quartiles(p), quartiles(c)
        rows.append({
            "metric": name,
            "parent": pq,
            "change": cq,
            "wins": sum(sign * (y - x) > 0 for x, y in zip(p, c)),
            "pairs": len(p),
            "beyond_iqr": abs(cq[1] - pq[1]) > pq[2] - pq[0],
        })
    return rows


def render(rows: list[dict], parent: list[dict], change: list[dict]) -> str:
    def cell(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = ["| metric | parent | change | change won | gap > parent IQR |", "|---|---|---|---|---|"]
    for r in rows:
        lines.append(f"| `{r['metric']}` | {cell(r['parent'])} | {cell(r['change'])} | "
                     f"{r['wins']}/{r['pairs']} | {'yes' if r['beyond_iqr'] else 'no'} |")
    lines.append(f"failed operations: parent {[r['failed'] for r in parent]}, "
                 f"change {[r['failed'] for r in change]}")
    return "\n".join(lines)


# the per-pair rank metrics whose setting pairs are named
RANKED = ("decide_tail_ref", "decide_p50_ref")


def setting_pairs(detail: dict) -> dict[str, list[int]]:
    """For each RANKED metric of one run's detail file, the corpus indices of
    the pairs whose median time is its value, or of the two pairs it lies
    between (the median of an even number of pairs)."""
    medians = [(statistics.median(p["times_ref"]), i) for i, p in enumerate(detail["pairs"]) if p["times_ref"]]
    out = {}
    for name in RANKED:
        value = detail["metrics"][name]["value"]
        exact = [i for m, i in medians if m == value]
        if not exact:
            exact = [max((m, i) for m, i in medians if m < value)[1], min((m, i) for m, i in medians if m > value)[1]]
        out[name] = exact
    return out


def render_setting_pairs(parent: dict, change: dict) -> str:
    p, c = setting_pairs(parent), setting_pairs(change)
    return "\n".join(
        f"pairs setting `{name}` at seed {parent['seed']}: parent {p[name]}, change {c[name]}" for name in RANKED
    )


def summed_times(detail: dict, key) -> dict:
    """The per-pair median times_ref of one run's detail file, summed by
    key(pair)."""
    out: dict = {}
    for p in detail["pairs"]:
        if p["times_ref"]:
            k = key(p)
            out[k] = out.get(k, 0) + statistics.median(p["times_ref"])
    return out


def outcome_times(detail: dict) -> dict[str, float]:
    """summed_times by the pair's outcome (outcomes joined by '/' if a pair
    had several)."""
    return summed_times(detail, lambda p: "/".join(p["outcomes"]))


def size_times(detail: dict) -> dict[int, float]:
    """summed_times by the pair's matrix size n."""
    return summed_times(detail, lambda p: p["n"])


def render_split(parent: dict, change: dict, what: str, times, label) -> str:
    lines = []
    for side, detail in (("parent", parent), ("change", change)):
        split = times(detail)
        total = sum(split.values())
        cells = ", ".join(f"{label(k)} {v:.4g} ({100 * v / total:.1f} %)" for k, v in sorted(split.items()))
        lines.append(f"time by {what} at seed {detail['seed']}, {side}: {cells}; total {total:.4g} ref")
    return "\n".join(lines)


def render_outcome_times(parent: dict, change: dict) -> str:
    return render_split(parent, change, "outcome", outcome_times, lambda k: f"`{k}`")


def render_size_times(parent: dict, change: dict) -> str:
    return render_split(parent, change, "size", size_times, lambda n: f"n = {n}")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    done = subprocess.run(
        [sys.executable, str(checkout / "decidebench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        print(f"{checkout} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed-base", type=int, required=True)
    args = ap.parse_args(argv)
    for side in (args.parent, args.change):
        if not (side / "decidebench" / "run.py").is_file():
            ap.error(f"{side} holds no decidebench/run.py")
    end_to_end = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    results: dict[Path, list[dict]] = {args.parent: [], args.change: []}
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = (args.parent, args.change) if i % 2 == 0 else (args.change, args.parent)
        for side in order:
            out = run_once(side.resolve(), args.workload, seed, args.seconds)
            if out is None:
                return 1
            results[side].append(out)
        print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
    parent, change = results[args.parent], results[args.change]
    print(render(summarize(end_to_end, parent, change), parent, change))
    stem = f"{args.workload}-seed{args.seed_base + args.pairs - 1}-trace0.json"
    details = [json.loads((side / "decidebench" / "results" / stem).read_text()) for side in (args.parent, args.change)]
    print(render_setting_pairs(*details))
    print(render_outcome_times(*details))
    print(render_size_times(*details))
    return 0


if __name__ == "__main__":
    sys.exit(main())
