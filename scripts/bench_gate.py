#!/usr/bin/env python3
"""Performance-regression gate over the BENCH_*.json artifacts.

Compares freshly generated benchmark JSON against the checked-in
baselines under bench/baselines/ and fails (exit 1) on regression.

Two classes of metric, with different tolerance bands:

* invariant -- machine-independent contracts that must hold exactly
  anywhere: zero allocations per op on the sampling hot path, zero
  dropped records on the lossless in-memory wire, the monitoring
  overhead staying inside the paper's < 0.5% budget.  These gate
  strictly: any violation fails, no band.

* ratio -- machine-dependent throughput/latency numbers (ns/op, MB/s,
  samples/s).  Checked-in baselines were recorded on one machine and CI
  runs on another, so these use a wide catastrophic-only band: the gate
  fails only when the fresh value is worse than baseline by more than
  --ratio-tolerance (default 4x).  That still catches accidental
  O(n) -> O(n^2) slips and "debug build leaked into the bench" while
  staying quiet across hardware generations.

* bounded -- machine-independent quantities that may drift a little
  (compression ratio): fail when worse than baseline by more than 10%.

Re-baselining (after an intentional perf change, on a quiet machine):

    cmake --build build -j && (cd build/bench && for b in ./bench_*; do $b; done)
    scripts/bench_gate.py --fresh build/bench --rebaseline
    git add bench/baselines && git commit

Usage:
    scripts/bench_gate.py [--fresh DIR] [--baselines DIR]
                          [--ratio-tolerance X] [--rebaseline]
"""

import argparse
import json
import pathlib
import shutil
import sys

# Metric kinds: how a (baseline, fresh) pair is judged.
INVARIANT = "invariant"  # fresh must equal the expected constant
RATIO = "ratio"          # fresh may be worse by at most ratio_tolerance x
BOUNDED = "bounded"      # fresh may be worse by at most 10%


class Check:
    def __init__(self, name, kind, baseline, fresh, *, expect=None,
                 higher_is_better=False):
        self.name = name
        self.kind = kind
        self.baseline = baseline
        self.fresh = fresh
        self.expect = expect  # invariant metrics only
        self.higher_is_better = higher_is_better

    def verdict(self, ratio_tolerance):
        if self.fresh is None:
            return False, "metric missing from fresh run"
        if self.kind == INVARIANT:
            if self.fresh == self.expect:
                return True, "holds"
            return False, f"expected {self.expect!r}, got {self.fresh!r}"
        if self.baseline is None:
            # New metric with no baseline yet: report, never fail.
            return True, "no baseline (informational)"
        band = ratio_tolerance if self.kind == RATIO else 1.10
        if self.higher_is_better:
            limit = self.baseline / band
            ok = self.fresh >= limit
            rel = self.fresh / self.baseline if self.baseline else 1.0
        else:
            limit = self.baseline * band
            ok = self.fresh <= limit
            rel = self.fresh / self.baseline if self.baseline else 1.0
        return ok, f"{rel:.2f}x of baseline (band {band:.2f}x)"


def get(doc, *path):
    """Walks dicts by key; returns None when any hop is missing."""
    node = doc
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def stage_map(doc):
    return {s.get("name"): s for s in doc.get("stages", [])
            if isinstance(s, dict)}


def checks_sampling(base, fresh):
    out = []
    fresh_stages = stage_map(fresh)
    base_stages = stage_map(base) if base else {}
    for name, stage in sorted(fresh_stages.items()):
        bstage = base_stages.get(name, {})
        if stage.get("must_be_zero_alloc"):
            out.append(Check(f"sampling.{name}.allocs_per_op", INVARIANT,
                             bstage.get("allocs_per_op"),
                             stage.get("allocs_per_op"), expect=0))
        out.append(Check(f"sampling.{name}.ns_per_op", RATIO,
                         bstage.get("ns_per_op"), stage.get("ns_per_op")))
    return out


def checks_overhead(base, fresh):
    return [
        Check("overhead.within_budget", INVARIANT,
              get(base, "within_budget") if base else None,
              get(fresh, "within_budget"), expect=True),
    ]


def checks_aggregator(base, fresh):
    out = [
        Check("aggregator.wire.records_dropped", INVARIANT,
              get(base, "wire", "records_dropped") if base else None,
              get(fresh, "wire", "records_dropped"), expect=0),
        Check("aggregator.wire.records_per_second", RATIO,
              get(base, "wire", "records_per_second") if base else None,
              get(fresh, "wire", "records_per_second"),
              higher_is_better=True),
    ]
    base_store = {s.get("series"): s for s in (base or {}).get("store", [])}
    for entry in fresh.get("store", []):
        series = entry.get("series")
        out.append(Check(f"aggregator.store.{series}.samples_per_second",
                         RATIO,
                         base_store.get(series, {}).get("samples_per_second"),
                         entry.get("samples_per_second"),
                         higher_is_better=True))
    return out


def checks_overload(base, fresh):
    return [
        # Degrade, never drop: sustained overload must coarsen records
        # (ladder engaged) while shedding none, and a client must never
        # count a record as acked that the daemon did not ingest.
        Check("overload.records_dropped", INVARIANT,
              get(base, "records_dropped") if base else None,
              get(fresh, "records_dropped"), expect=0),
        Check("overload.acked_loss", INVARIANT,
              get(base, "acked_loss") if base else None,
              get(fresh, "acked_loss"), expect=0),
        Check("overload.coarsened_nonzero", INVARIANT,
              get(base, "coarsened_nonzero") if base else None,
              get(fresh, "coarsened_nonzero"), expect=True),
        Check("overload.ingest_records_per_second", RATIO,
              get(base, "ingest_records_per_second") if base else None,
              get(fresh, "ingest_records_per_second"),
              higher_is_better=True),
    ]


def checks_metrics(base, fresh):
    return [
        # The telemetry plane must never go dark: every per-stage latency
        # histogram records observations during a live run, and the
        # scraped exposition carries all four families.
        Check("metrics.all_stages_nonzero", INVARIANT,
              get(base, "all_stages_nonzero") if base else None,
              get(fresh, "all_stages_nonzero"), expect=True),
        Check("metrics.exposition_has_all_stages", INVARIANT,
              get(base, "exposition_has_all_stages") if base else None,
              get(fresh, "exposition_has_all_stages"), expect=True),
        Check("metrics.scrape_p99_us", RATIO,
              get(base, "scrape_p99_us") if base else None,
              get(fresh, "scrape_p99_us")),
        Check("metrics.ingest_records_per_second", RATIO,
              get(base, "ingest_records_per_second") if base else None,
              get(fresh, "ingest_records_per_second"),
              higher_is_better=True),
    ]


def checks_query(base, fresh):
    return [
        # Read-plane contracts (DESIGN.md §12): a heavy dashboard load
        # must not cost the lossless wire a single ingest record, and
        # read overload sheds (429 + Retry-After) instead of stalling —
        # some queries answer 200, the excess 429, none hang.
        Check("query.records_dropped", INVARIANT,
              get(base, "records_dropped") if base else None,
              get(fresh, "records_dropped"), expect=0),
        Check("query.shed_not_stalled", INVARIANT,
              get(base, "shed_not_stalled") if base else None,
              get(fresh, "shed_not_stalled"), expect=True),
        # The workload is deterministic (virtual time), so the hit ratio
        # holds to the tight bounded band across machines.
        Check("query.cache_hit_ratio", BOUNDED,
              get(base, "cache_hit_ratio") if base else None,
              get(fresh, "cache_hit_ratio"), higher_is_better=True),
        Check("query.live_p99_us", RATIO,
              get(base, "live_p99_us") if base else None,
              get(fresh, "live_p99_us")),
        Check("query.queries_per_second", RATIO,
              get(base, "queries_per_second") if base else None,
              get(fresh, "queries_per_second"), higher_is_better=True),
        # Copy-on-write refresh of a 2848-series store at full retention:
        # a slip back to deep copies costs ~1000x, far outside the band.
        Check("query.snapshot_refresh_us", RATIO,
              get(base, "snapshot_refresh_us") if base else None,
              get(fresh, "snapshot_refresh_us")),
    ]


def checks_tsdb(base, fresh):
    return [
        Check("tsdb.csv_fraction", BOUNDED,
              get(base, "csv_fraction") if base else None,
              get(fresh, "csv_fraction")),
        Check("tsdb.encode_mb_per_second", RATIO,
              get(base, "encode_mb_per_second") if base else None,
              get(fresh, "encode_mb_per_second"), higher_is_better=True),
        Check("tsdb.decode_mb_per_second", RATIO,
              get(base, "decode_mb_per_second") if base else None,
              get(fresh, "decode_mb_per_second"), higher_is_better=True),
    ]


def checks_federation(base, fresh):
    out = [
        # Fan-in contracts (DESIGN.md §11): every coarse window a node
        # daemon acked is present at the root (even across the group
        # kill), the comparison actually checked series (non-vacuous),
        # the root names every rank, and the tree sustains >= 2x the
        # flat daemon's in-run ingest rate at equal per-daemon budget.
        Check("federation.acked_loss", INVARIANT,
              get(base, "acked_loss") if base else None,
              get(fresh, "acked_loss"), expect=0),
        Check("federation.coverage_complete", INVARIANT,
              get(base, "coverage_complete") if base else None,
              get(fresh, "coverage_complete"), expect=True),
        Check("federation.tree_speedup_ge_2", INVARIANT,
              get(base, "tree_speedup_ge_2") if base else None,
              get(fresh, "tree_speedup_ge_2"), expect=True),
    ]
    base_scales = {s.get("ranks"): s for s in (base or {}).get("scales", [])
                   if isinstance(s, dict)}
    for entry in fresh.get("scales", []):
        ranks = entry.get("ranks")
        bscale = base_scales.get(ranks, {})
        # Virtual-time rates are deterministic record counts, so the
        # 10% bounded band holds them tightly across machines.
        out.append(Check(f"federation.{ranks}.tree_ingest_per_vsecond",
                         BOUNDED, bscale.get("tree_ingest_records_per_vsecond"),
                         entry.get("tree_ingest_records_per_vsecond"),
                         higher_is_better=True))
        out.append(Check(f"federation.{ranks}.root_query_mean_us", RATIO,
                         bscale.get("tree_query_mean_us"),
                         entry.get("tree_query_mean_us")))
    return out


# file name -> check builder; files not listed here are not gated.
GATED = {
    "BENCH_sampling.json": checks_sampling,
    "BENCH_overhead.json": checks_overhead,
    "BENCH_aggregator.json": checks_aggregator,
    "BENCH_overload.json": checks_overload,
    "BENCH_metrics.json": checks_metrics,
    "BENCH_query.json": checks_query,
    "BENCH_tsdb.json": checks_tsdb,
    "BENCH_federation.json": checks_federation,
}


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


def main():
    repo = pathlib.Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fresh", default=str(repo / "build" / "bench"),
                    help="directory holding freshly generated BENCH_*.json")
    ap.add_argument("--baselines", default=str(repo / "bench" / "baselines"),
                    help="directory holding checked-in baseline JSON")
    ap.add_argument("--ratio-tolerance", type=float, default=4.0,
                    help="catastrophic-only band for throughput metrics")
    ap.add_argument("--rebaseline", action="store_true",
                    help="copy fresh results over the baselines and exit")
    args = ap.parse_args()

    fresh_dir = pathlib.Path(args.fresh)
    base_dir = pathlib.Path(args.baselines)

    if args.rebaseline:
        base_dir.mkdir(parents=True, exist_ok=True)
        copied = []
        for name in GATED:
            src = fresh_dir / name
            if src.is_file():
                shutil.copyfile(src, base_dir / name)
                copied.append(name)
        if not copied:
            print(f"bench_gate: no BENCH_*.json found in {fresh_dir}",
                  file=sys.stderr)
            return 1
        print(f"bench_gate: rebaselined {', '.join(copied)} -> {base_dir}")
        return 0

    failures = 0
    missing = []
    for name, builder in sorted(GATED.items()):
        fresh = load(fresh_dir / name)
        if fresh is None:
            missing.append(name)
            continue
        base = load(base_dir / name)
        if base is None:
            print(f"-- {name}: no baseline checked in; informational only")
        for check in builder(base, fresh):
            ok, detail = check.verdict(args.ratio_tolerance)
            status = "ok  " if ok else "FAIL"
            print(f"  [{status}] {check.name}: {detail}")
            if not ok:
                failures += 1

    if missing:
        print(f"bench_gate: missing fresh results for {', '.join(missing)} "
              f"in {fresh_dir}", file=sys.stderr)
        return 1
    if failures:
        print(f"bench_gate: {failures} metric(s) regressed "
              f"(re-baseline intentional changes with --rebaseline)",
              file=sys.stderr)
        return 1
    print("bench_gate: all gated metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
