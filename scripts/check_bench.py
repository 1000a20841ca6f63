#!/usr/bin/env python3
"""Regression gates for the benchmark result documents.

Default mode diffs a fresh ``results/BENCH_pipeline.json`` (written by
``cargo run -p ips-bench --release --bin bench_pipeline``) against the
committed ``results/BENCH_pipeline.baseline.json``:

* **Determinism drift fails hard.** Counters, accuracies, cache hit
  rates, run parameters, and span *keys* are deterministic by
  construction (fixed-seed datasets, seeded methods, thread-invariant
  engine), so any mismatch is a real behavior change.
* **Wall time gets a budget.** Each run's ``fit.total`` span — and the
  sum over all runs — may grow by at most ``--max-ratio`` (default 1.25,
  i.e. a 25% slowdown) over the baseline. Per-run comparisons add an
  absolute slack on top and measure sub-noise-floor baselines against
  the floor itself, so scheduler jitter on short runs cannot flake the
  gate; the summed total (large enough to average jitter out) gets the
  ratio alone.
* ``resolved_threads`` is machine-dependent and informational only.

``--append-trajectory [PATH]`` additionally appends one JSON line per
invocation to a trajectory file (default
``results/BENCH_trajectory.jsonl``) summarizing the fresh results — git
revision, whether the tree was dirty, per-run ``fit.total`` milliseconds,
the summed total, and the gate outcome — so per-PR performance history
accumulates in one greppable place instead of being overwritten by each
regeneration.

``--scaling`` switches to the scaling frontier (DESIGN.md §13): it
diffs ``results/BENCH_scaling.json`` (written by ``cargo run -p
ips-bench --release --bin bench_scaling``) against the committed
``results/BENCH_scaling.baseline.json``. Like the grid gate it is pure
conformance — no wall budgets (the ≥5x frontier lives in the committed
baseline, wall clock is machine-dependent) — and enforces:

* **Exact equality against the baseline** for every cell's params,
  counters, gauges, and span keys.
* **Thread invariance within the fresh document**: cells of one
  (method, dataset) that differ only in thread count must agree
  exactly on counters and gauges — sampling is pure in
  (workload, seed), so any drift is sampled-pool nondeterminism.
* **Accuracy floors**: every sampled / ensemble cell must stay within
  ``ACCURACY_MARGIN`` (2 points) of its dataset's dense cell.
* **Pool shrink**: every sampled-family cell must report
  ``candidate_gen.sampled_candidates`` >= 1 and strictly below the
  dense cell's ``candidate_gen.candidates_out`` — the counters must
  prove the candidate pool actually shrank.

``--serve`` switches to the serving benchmark (DESIGN.md §14): it
diffs ``results/BENCH_serve.json`` (written by ``cargo run -p
ips-bench --release --bin bench_serve``) against the committed
``results/BENCH_serve.baseline.json`` and enforces:

* **Exact equality against the baseline** for every cell's params,
  counters (the ``serve.pred_hash`` response digest included, so one
  flipped prediction anywhere fails), deterministic gauges, and span
  keys. Throughput figures (``serve.rps``, ``serve.p50_ms``,
  ``serve.p99_ms``) are machine-dependent and informational.
* **Thread invariance within the fresh document**: cells that differ
  only in worker-thread count must agree exactly on counters and
  deterministic gauges — batch scoring is bit-identical to
  single-request scoring by contract, so any drift is concurrency
  nondeterminism.
* **Accuracy floors**: every ``accuracy.<dataset>`` gauge must stay at
  or above ``SERVE_ACCURACY_FLOOR`` (0.7).
* **Wall budget on ``serve.total``** with the same ratio-plus-floor
  shape as the pipeline gate (no other wall budgets).

``--grid`` switches to the cross-method conformance grid (DESIGN.md
§12): it diffs ``results/GRID.json`` (written by ``cargo run -p
ips-bench --release --bin bench_grid``) against the committed
``results/GRID.baseline.json``. The grid gate is pure conformance — no
wall-time budgets — and enforces:

* **Exact equality against the baseline** for every cell's params,
  counters, gauges (accuracy included; ``resolved_threads`` stays
  informational), and span keys, plus the whole rank ``summary``.
* **Cell-label hygiene**: every run label parses as
  ``method/dataset/t<threads>/c<chunk>`` and matches its params.
* **Engine determinism across the grid axes** within the fresh document
  alone: for each (method, dataset), all cells must agree on accuracy
  and counters — exactly across thread counts, and up to
  ``*.sched_items`` across chunk sizes (the one counter the scheduler
  knob may legitimately move).
* **Rank-summary consistency**: the document's ``summary.avg_ranks``
  must equal average Friedman ranks recomputed here from the
  ``t1/cauto`` accuracy cells, so a doctored summary cannot hide a
  rank inversion.

Exit status: 0 when everything passes, 1 on any failure.

``--append-trajectory`` also folds per-method ``fit.total`` sums from
``results/GRID.json`` (when present) into each record, so the
trajectory carries the grid's wall-clock history alongside the
pipeline benchmark's.

``--self-test`` verifies the gate itself. Default mode: the baseline
must pass against itself, an injected 2x slowdown of every
``fit.total`` must fail, and the trajectory writer must fold serve
throughput fields from a scratch serve document. Grid mode: the
baseline must pass against itself, and both an injected accuracy flip
and an injected rank inversion must fail. Scaling mode: the baseline
must pass against itself, and both an injected sampled-cell accuracy
drop and an injected cross-thread counter divergence (sampled-pool
nondeterminism) must fail. Serve mode: the baseline must pass against
itself, and both an injected wrong prediction (flipped accuracy +
perturbed response digest) and an injected cross-thread counter
divergence must fail.

Standard library only; no third-party imports.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys

# Record schema versions this gate understands (v2 added the optional
# `degraded` flag; v1 records parse identically for comparison purposes).
SUPPORTED_SCHEMA_VERSIONS = {1, 2}

# Baseline fit.total durations below this are compared against the floor
# itself: scheduler jitter dominates single-digit milliseconds.
NOISE_FLOOR_NS = 50_000_000  # 50 ms

# Extra absolute budget for per-run comparisons only. A few hundred
# milliseconds of jitter is routine on shared CI runners and would trip a
# pure ratio on any sub-second run; a genuine regression of the whole
# benchmark still fails the summed-total ratio check.
PER_RUN_SLACK_NS = 100_000_000  # 100 ms

# Gauges that legitimately differ across machines (the serving
# throughput figures are wall-clock measurements by definition).
INFORMATIONAL_GAUGES = {
    "resolved_threads",
    "serve.rps",
    "serve.p50_ms",
    "serve.p99_ms",
}

# The one counter suffix the scheduler chunk knob may legitimately move
# between grid cells that differ only in chunk size (mirrors the
# `engine_equivalence` test exemption).
SCHED_EXEMPT_SUFFIX = ".sched_items"

# The grid axis cell whose accuracies feed the rank summary.
GRID_REFERENCE_VARIANT = ("1", "auto")

# Scaling mode: how far below the dense cell a sampled / ensemble
# cell's accuracy may fall, and the method every other cell is compared
# against.
ACCURACY_MARGIN = 0.02
SCALING_DENSE_METHOD = "dense"

# Serve mode: the absolute floor every per-dataset serving accuracy
# gauge must clear.
SERVE_ACCURACY_FLOOR = 0.7


def load(path, role, bench="bench_pipeline"):
    """Loads one results document, mapping every failure mode to a
    one-line actionable message naming the file and how to fix it.

    Returns ``(doc, runs)`` where ``runs`` maps label -> run record.
    """
    regen = (
        f"run `cargo run -p ips-bench --release --bin {bench}` and "
        "commit the output as the baseline"
        if role == "baseline"
        else f"run `cargo run -p ips-bench --release --bin {bench}` to generate it"
    )
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise SystemExit(f"{path}: {role} file not found; {regen}")
    except json.JSONDecodeError as e:
        raise SystemExit(
            f"{path}: {role} is not valid JSON (line {e.lineno}: {e.msg}); {regen}"
        )
    if not isinstance(doc, dict):
        raise SystemExit(f"{path}: {role} must be a JSON object, not {type(doc).__name__}; {regen}")
    version = doc.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise SystemExit(
            f"{path}: schema_version {version!r} is not supported "
            f"(expected one of {sorted(SUPPORTED_SCHEMA_VERSIONS)}); regenerate the file"
        )
    runs = {}
    for run in doc.get("runs", []):
        if run.get("schema_version") not in SUPPORTED_SCHEMA_VERSIONS:
            raise SystemExit(
                f"{path}: run {run.get('label')!r} has schema_version "
                f"{run.get('schema_version')!r} "
                f"(expected one of {sorted(SUPPORTED_SCHEMA_VERSIONS)})"
            )
        label = run["label"]
        if label in runs:
            raise SystemExit(f"{path}: duplicate run label {label!r}")
        runs[label] = run
    if not runs:
        raise SystemExit(f"{path}: no runs")
    return doc, runs


def span_total_ns(run, key="fit.total"):
    span = run["metrics"]["spans"].get(key)
    return span["total_ns"] if span else None


def fit_total_ns(run):
    return span_total_ns(run)


def compare(baseline, fresh, max_ratio, span_key="fit.total"):
    """Returns a list of failure strings (empty = pass).

    ``span_key`` names the span whose total gets the wall budget —
    ``fit.total`` for the fitting benchmarks, ``serve.total`` for the
    serving benchmark.
    """
    failures = []

    missing = sorted(set(baseline) - set(fresh))
    extra = sorted(set(fresh) - set(baseline))
    if missing:
        failures.append(f"runs missing from fresh results: {', '.join(missing)}")
    if extra:
        failures.append(f"unexpected new runs (regenerate the baseline): {', '.join(extra)}")

    total_base_ns = 0
    total_fresh_ns = 0
    for label in sorted(set(baseline) & set(fresh)):
        b, f = baseline[label], fresh[label]

        if b.get("params") != f.get("params"):
            failures.append(f"{label}: params drifted: {b.get('params')} -> {f.get('params')}")

        bm, fm = b["metrics"], f["metrics"]
        if bm["counters"] != fm["counters"]:
            keys = sorted(set(bm["counters"]) | set(fm["counters"]))
            diffs = [
                f"{k}: {bm['counters'].get(k)} -> {fm['counters'].get(k)}"
                for k in keys
                if bm["counters"].get(k) != fm["counters"].get(k)
            ]
            failures.append(f"{label}: counter drift ({'; '.join(diffs)})")

        for k in sorted(set(bm["gauges"]) | set(fm["gauges"])):
            if k in INFORMATIONAL_GAUGES:
                continue
            bv, fv = bm["gauges"].get(k), fm["gauges"].get(k)
            if bv != fv:
                failures.append(f"{label}: gauge {k} drifted: {bv} -> {fv}")

        b_spans, f_spans = set(bm["spans"]), set(fm["spans"])
        if b_spans != f_spans:
            failures.append(
                f"{label}: span keys drifted: -{sorted(b_spans - f_spans)} "
                f"+{sorted(f_spans - b_spans)}"
            )

        b_ns, f_ns = span_total_ns(b, span_key), span_total_ns(f, span_key)
        if b_ns is None or f_ns is None:
            failures.append(f"{label}: missing {span_key} span")
            continue
        total_base_ns += b_ns
        total_fresh_ns += f_ns
        budget_ns = max_ratio * max(b_ns, NOISE_FLOOR_NS) + PER_RUN_SLACK_NS
        if f_ns > budget_ns:
            failures.append(
                f"{label}: {span_key} regressed {f_ns / max(b_ns, NOISE_FLOOR_NS):.2f}x "
                f"({b_ns / 1e6:.1f} ms -> {f_ns / 1e6:.1f} ms, "
                f"budget {budget_ns / 1e6:.1f} ms)"
            )

    if total_base_ns:
        overall = total_fresh_ns / max(total_base_ns, NOISE_FLOOR_NS)
        if overall > max_ratio:
            failures.append(
                f"overall: summed {span_key} regressed {overall:.2f}x "
                f"({total_base_ns / 1e6:.1f} ms -> {total_fresh_ns / 1e6:.1f} ms, "
                f"budget {max_ratio}x)"
            )

    return failures


def parse_cell(label):
    """Parses ``method/dataset/t<threads>/c<chunk>`` into its four
    coordinates, or None (mirrors ``ips_obs::GridCell::from_label``)."""
    parts = label.split("/")
    if len(parts) != 4:
        return None
    method, dataset, threads, chunk = parts
    if not method or not dataset:
        return None
    if not threads.startswith("t") or not chunk.startswith("c"):
        return None
    return method, dataset, threads[1:], chunk[1:]


def counter_diffs(a, b, exempt_suffix=None):
    """Human-readable diffs between two counter maps, optionally
    ignoring keys that end with `exempt_suffix`."""
    return [
        f"{k}: {a.get(k)} -> {b.get(k)}"
        for k in sorted(set(a) | set(b))
        if a.get(k) != b.get(k)
        and not (exempt_suffix and k.endswith(exempt_suffix))
    ]


def gauge_diffs(a, b):
    """Diffs between two gauge maps, skipping informational gauges."""
    return [
        f"{k}: {a.get(k)} -> {b.get(k)}"
        for k in sorted(set(a) | set(b))
        if k not in INFORMATIONAL_GAUGES and a.get(k) != b.get(k)
    ]


def grid_labels_well_formed(runs):
    """Every label parses and matches the params stamped on the run."""
    failures = []
    for label in sorted(runs):
        cell = parse_cell(label)
        if cell is None:
            failures.append(f"{label}: label is not method/dataset/t*/c*")
            continue
        params = runs[label].get("params", {})
        for key, want in zip(("method", "dataset", "threads", "chunk"), cell):
            if params.get(key) != want:
                failures.append(
                    f"{label}: param {key}={params.get(key)!r} "
                    f"disagrees with label coordinate {want!r}"
                )
    return failures


def grid_axis_invariance(runs):
    """Engine determinism across the grid axes, within one document.

    Every cell of a (method, dataset) group is compared to the group's
    ``t1/cauto`` reference: gauges (accuracy included) and span keys
    must match exactly; counters must match exactly when the chunk label
    matches the reference, and up to ``*.sched_items`` otherwise.
    """
    failures = []
    groups = {}
    for label, run in runs.items():
        cell = parse_cell(label)
        if cell is None:
            continue  # already reported by grid_labels_well_formed
        method, dataset, threads, chunk = cell
        groups.setdefault((method, dataset), {})[(threads, chunk)] = run

    ref_threads, ref_chunk = GRID_REFERENCE_VARIANT
    for (method, dataset), cells in sorted(groups.items()):
        ref = cells.get(GRID_REFERENCE_VARIANT)
        if ref is None:
            failures.append(
                f"{method}/{dataset}: missing reference cell "
                f"t{ref_threads}/c{ref_chunk}"
            )
            continue
        rm = ref["metrics"]
        for (threads, chunk), run in sorted(cells.items()):
            if (threads, chunk) == GRID_REFERENCE_VARIANT:
                continue
            label = f"{method}/{dataset}/t{threads}/c{chunk}"
            m = run["metrics"]
            exempt = SCHED_EXEMPT_SUFFIX if chunk != ref_chunk else None
            drift = counter_diffs(rm["counters"], m["counters"], exempt)
            if drift:
                failures.append(
                    f"{label}: counters drift from t{ref_threads}/c{ref_chunk} "
                    f"({'; '.join(drift)})"
                )
            drift = gauge_diffs(rm["gauges"], m["gauges"])
            if drift:
                failures.append(
                    f"{label}: gauges drift from t{ref_threads}/c{ref_chunk} "
                    f"({'; '.join(drift)})"
                )
            if set(rm["spans"]) != set(m["spans"]):
                failures.append(
                    f"{label}: span keys drift from t{ref_threads}/c{ref_chunk}"
                )
    return failures


def average_ranks(rows):
    """Average Friedman ranks per column over score rows; higher score =
    better = lower rank; ties get the average of their positions
    (mirrors ``ips_stats::rank::average_ranks``)."""
    k = len(rows[0])
    sums = [0.0] * k
    for row in rows:
        order = sorted(range(k), key=lambda j: -row[j])
        pos = 0
        while pos < len(order):
            tie_end = pos
            while tie_end + 1 < k and row[order[tie_end + 1]] == row[order[pos]]:
                tie_end += 1
            rank = (pos + tie_end) / 2.0 + 1.0
            for idx in order[pos : tie_end + 1]:
                sums[idx] += rank
            pos = tie_end + 1
    return [s / len(rows) for s in sums]


def grid_summary_consistent(doc, runs):
    """The document's rank summary must match ranks recomputed from its
    own ``t1/cauto`` accuracy cells."""
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        return ["summary: missing or not an object"]
    methods = summary.get("methods")
    datasets = doc.get("datasets")
    if not methods or not datasets:
        return ["summary: missing methods or datasets list"]

    failures = []
    rows = []
    ref_threads, ref_chunk = GRID_REFERENCE_VARIANT
    for dataset in datasets:
        row = []
        for method in methods:
            label = f"{method}/{dataset}/t{ref_threads}/c{ref_chunk}"
            run = runs.get(label)
            accuracy = (
                run["metrics"]["gauges"].get("accuracy") if run else None
            )
            if accuracy is None:
                failures.append(f"{label}: missing accuracy cell for rank summary")
            else:
                row.append(accuracy)
        if len(row) == len(methods):
            rows.append(row)
    if failures:
        return failures

    recomputed = average_ranks(rows)
    reported = summary.get("avg_ranks")
    if (
        not isinstance(reported, list)
        or len(reported) != len(recomputed)
        or any(abs(a - b) > 1e-9 for a, b in zip(reported, recomputed))
    ):
        failures.append(
            f"summary: avg_ranks inconsistent with cell accuracies "
            f"(reported {reported}, recomputed {[round(r, 4) for r in recomputed]})"
        )
    return failures


def grid_compare(baseline_doc, baseline_runs, fresh_doc, fresh_runs):
    """Returns a list of failure strings (empty = pass) for grid mode."""
    failures = []
    failures += grid_labels_well_formed(fresh_runs)
    # Structural equality against the baseline, with no wall-time budget
    # (conformance only; bench_pipeline owns performance).
    failures += compare(baseline_runs, fresh_runs, float("inf"))
    failures += grid_axis_invariance(fresh_runs)
    failures += grid_summary_consistent(fresh_doc, fresh_runs)
    if baseline_doc.get("datasets") != fresh_doc.get("datasets"):
        failures.append("datasets list drifted from the baseline")
    if baseline_doc.get("summary") != fresh_doc.get("summary"):
        failures.append(
            "rank summary drifted from the baseline "
            f"({baseline_doc.get('summary')} -> {fresh_doc.get('summary')})"
        )
    return failures


def grid_self_test(baseline_doc, baseline_runs):
    """Verifies the grid gate: identity passes, an injected accuracy
    flip fails, and an injected rank inversion fails."""
    clean = grid_compare(
        baseline_doc, baseline_runs, copy.deepcopy(baseline_doc), copy.deepcopy(baseline_runs)
    )
    if clean:
        print("grid self-test FAILED: baseline does not pass against itself:")
        for msg in clean:
            print(f"  - {msg}")
        return 1

    # Accuracy flip: invert one reference cell's accuracy. This must trip
    # the baseline diff AND the cross-variant invariance check.
    flipped_doc = copy.deepcopy(baseline_doc)
    flipped_runs = {run["label"]: run for run in flipped_doc["runs"]}
    ref_threads, ref_chunk = GRID_REFERENCE_VARIANT
    target = next(
        label
        for label in sorted(flipped_runs)
        if parse_cell(label) is not None
        and parse_cell(label)[2:] == (ref_threads, ref_chunk)
        and flipped_runs[label]["metrics"]["gauges"].get("accuracy") not in (None, 0.5)
    )
    gauges = flipped_runs[target]["metrics"]["gauges"]
    gauges["accuracy"] = 1.0 - gauges["accuracy"]
    doctored = grid_compare(baseline_doc, baseline_runs, flipped_doc, flipped_runs)
    flip_failures = [m for m in doctored if "accuracy" in m or target in m]
    if not flip_failures:
        print(f"grid self-test FAILED: accuracy flip in {target} was not detected")
        return 1

    # Rank inversion: swap two (distinct) average ranks in the summary.
    # The recomputation from cell accuracies must catch it even though
    # the cells themselves are untouched.
    inverted_doc = copy.deepcopy(baseline_doc)
    inverted_runs = {run["label"]: run for run in inverted_doc["runs"]}
    ranks = inverted_doc["summary"]["avg_ranks"]
    lo = min(range(len(ranks)), key=lambda i: ranks[i])
    hi = max(range(len(ranks)), key=lambda i: ranks[i])
    if ranks[lo] == ranks[hi]:
        print("grid self-test FAILED: baseline ranks are all tied; cannot invert")
        return 1
    ranks[lo], ranks[hi] = ranks[hi], ranks[lo]
    doctored = grid_compare(baseline_doc, baseline_runs, inverted_doc, inverted_runs)
    inversion_failures = [m for m in doctored if "avg_ranks inconsistent" in m]
    if not inversion_failures:
        print("grid self-test FAILED: rank inversion in the summary was not detected")
        return 1

    print(
        f"grid self-test OK: identity passes, accuracy flip raises "
        f"{len(flip_failures)} failure(s), rank inversion raises "
        f"{len(inversion_failures)} failure(s)"
    )
    return 0


def parse_scaling_cell(label):
    """Parses ``method/dataset<xN>/t<threads>`` into its three
    coordinates, or None (mirrors ``bench_scaling``'s label format)."""
    parts = label.split("/")
    if len(parts) != 3:
        return None
    method, dataset, threads = parts
    if not method or not dataset or not threads.startswith("t"):
        return None
    return method, dataset, threads[1:]


def scaling_labels_well_formed(runs):
    """Every label parses and matches the params stamped on the run."""
    failures = []
    for label in sorted(runs):
        cell = parse_scaling_cell(label)
        if cell is None:
            failures.append(f"{label}: label is not method/dataset/t*")
            continue
        method, dataset, threads = cell
        params = runs[label].get("params", {})
        want_dataset = f"{params.get('dataset')}x{params.get('scale')}"
        for key, want in (
            ("method", method),
            ("threads", threads),
        ):
            if params.get(key) != want:
                failures.append(
                    f"{label}: param {key}={params.get(key)!r} "
                    f"disagrees with label coordinate {want!r}"
                )
        if dataset != want_dataset:
            failures.append(
                f"{label}: dataset coordinate {dataset!r} disagrees with "
                f"params dataset+scale {want_dataset!r}"
            )
    return failures


def scaling_groups(runs):
    """Cells grouped as (method, dataset) -> threads -> run."""
    groups = {}
    for label, run in runs.items():
        cell = parse_scaling_cell(label)
        if cell is None:
            continue  # already reported by scaling_labels_well_formed
        method, dataset, threads = cell
        groups.setdefault((method, dataset), {})[threads] = run
    return groups


def scaling_thread_invariance(runs):
    """Sampling must be pure in (workload, seed): cells of one
    (method, dataset) that differ only in thread count must agree
    exactly on counters and gauges. Any drift is sampled-pool
    nondeterminism leaking in from the parallel axis."""
    failures = []
    for (method, dataset), by_threads in sorted(scaling_groups(runs).items()):
        if len(by_threads) < 2:
            continue
        ref_threads = min(by_threads, key=lambda t: (len(t), t))
        ref = by_threads[ref_threads]["metrics"]
        for threads, run in sorted(by_threads.items()):
            if threads == ref_threads:
                continue
            label = f"{method}/{dataset}/t{threads}"
            m = run["metrics"]
            drift = counter_diffs(ref["counters"], m["counters"])
            if drift:
                failures.append(
                    f"{label}: counters drift from t{ref_threads} — "
                    f"sampled-pool nondeterminism ({'; '.join(drift)})"
                )
            drift = gauge_diffs(ref["gauges"], m["gauges"])
            if drift:
                failures.append(
                    f"{label}: gauges drift from t{ref_threads} ({'; '.join(drift)})"
                )
    return failures


def scaling_frontier(runs):
    """Accuracy floors and pool-shrink proof against each dataset's
    dense reference cell."""
    failures = []
    groups = scaling_groups(runs)
    dense = {
        dataset: by_threads
        for (method, dataset), by_threads in groups.items()
        if method == SCALING_DENSE_METHOD
    }
    for (method, dataset), by_threads in sorted(groups.items()):
        if method == SCALING_DENSE_METHOD:
            continue
        dense_cells = dense.get(dataset)
        if not dense_cells:
            failures.append(f"{dataset}: no {SCALING_DENSE_METHOD} reference cell")
            continue
        dense_run = dense_cells[min(dense_cells, key=lambda t: (len(t), t))]
        dense_accuracy = dense_run["metrics"]["gauges"].get("accuracy")
        dense_pool = dense_run["metrics"]["counters"].get(
            "candidate_gen.candidates_out"
        )
        for threads, run in sorted(by_threads.items()):
            label = f"{method}/{dataset}/t{threads}"
            accuracy = run["metrics"]["gauges"].get("accuracy")
            if accuracy is None or dense_accuracy is None:
                failures.append(f"{label}: missing accuracy gauge")
            elif accuracy < dense_accuracy - ACCURACY_MARGIN:
                failures.append(
                    f"{label}: accuracy {accuracy:.4f} fell below the dense "
                    f"accuracy floor ({dense_accuracy:.4f} - {ACCURACY_MARGIN})"
                )
            sampled = run["metrics"]["counters"].get(
                "candidate_gen.sampled_candidates", 0
            )
            if not sampled:
                failures.append(
                    f"{label}: candidate_gen.sampled_candidates missing or zero "
                    "(sampling did not run)"
                )
            elif dense_pool is None or sampled >= dense_pool:
                failures.append(
                    f"{label}: sampled pool ({sampled}) is not smaller than the "
                    f"dense pool ({dense_pool}) — the counters must prove shrink"
                )
    return failures


def scaling_compare(baseline_doc, baseline_runs, fresh_doc, fresh_runs):
    """Returns a list of failure strings (empty = pass) for scaling
    mode: conformance only, no wall budgets."""
    failures = []
    failures += scaling_labels_well_formed(fresh_runs)
    failures += compare(baseline_runs, fresh_runs, float("inf"))
    failures += scaling_thread_invariance(fresh_runs)
    failures += scaling_frontier(fresh_runs)
    if baseline_doc.get("datasets") != fresh_doc.get("datasets"):
        failures.append("datasets list drifted from the baseline")
    return failures


def scaling_self_test(baseline_doc, baseline_runs):
    """Verifies the scaling gate: identity passes, an injected sampled
    accuracy drop fails the floor, and an injected cross-thread counter
    divergence fails the nondeterminism check."""
    clean = scaling_compare(
        baseline_doc,
        baseline_runs,
        copy.deepcopy(baseline_doc),
        copy.deepcopy(baseline_runs),
    )
    if clean:
        print("scaling self-test FAILED: baseline does not pass against itself:")
        for msg in clean:
            print(f"  - {msg}")
        return 1

    # Accuracy drop: push one sampled cell well below the dense floor.
    dropped_doc = copy.deepcopy(baseline_doc)
    dropped_runs = {run["label"]: run for run in dropped_doc["runs"]}
    target = next(
        label
        for label in sorted(dropped_runs)
        if parse_scaling_cell(label) is not None
        and parse_scaling_cell(label)[0] != SCALING_DENSE_METHOD
    )
    dropped_runs[target]["metrics"]["gauges"]["accuracy"] = 0.0
    doctored = scaling_compare(baseline_doc, baseline_runs, dropped_doc, dropped_runs)
    floor_failures = [m for m in doctored if "accuracy floor" in m]
    if not floor_failures:
        print(f"scaling self-test FAILED: accuracy drop in {target} was not detected")
        return 1

    # Nondeterminism: nudge one counter of a non-reference thread
    # variant, so the same workload appears to sample differently at a
    # different thread count.
    forked_doc = copy.deepcopy(baseline_doc)
    forked_runs = {run["label"]: run for run in forked_doc["runs"]}
    target = None
    for (method, dataset), by_threads in sorted(scaling_groups(forked_runs).items()):
        if len(by_threads) < 2:
            continue
        threads = max(by_threads, key=lambda t: (len(t), t))
        target = f"{method}/{dataset}/t{threads}"
        counters = by_threads[threads]["metrics"]["counters"]
        counters["candidate_gen.sampled_candidates"] = (
            counters.get("candidate_gen.sampled_candidates", 0) + 1
        )
        break
    if target is None:
        print("scaling self-test FAILED: no multi-thread cell group to doctor")
        return 1
    doctored = scaling_compare(baseline_doc, baseline_runs, forked_doc, forked_runs)
    fork_failures = [m for m in doctored if "nondeterminism" in m]
    if not fork_failures:
        print(
            f"scaling self-test FAILED: cross-thread counter divergence in "
            f"{target} was not detected"
        )
        return 1

    print(
        f"scaling self-test OK: identity passes, accuracy drop raises "
        f"{len(floor_failures)} floor failure(s), cross-thread divergence "
        f"raises {len(fork_failures)} nondeterminism failure(s)"
    )
    return 0


def parse_serve_cell(label):
    """Parses ``serve/<stream>/t<threads>`` into its three coordinates,
    or None (mirrors ``bench_serve``'s label format)."""
    parts = label.split("/")
    if len(parts) != 3:
        return None
    kind, stream, threads = parts
    if kind != "serve" or not stream or not threads.startswith("t"):
        return None
    return kind, stream, threads[1:]


def serve_labels_well_formed(runs):
    """Every label parses, matches the params stamped on the run, and
    carries the response digest the gate pins."""
    failures = []
    for label in sorted(runs):
        cell = parse_serve_cell(label)
        if cell is None:
            failures.append(f"{label}: label is not serve/<stream>/t*")
            continue
        params = runs[label].get("params", {})
        if params.get("threads") != cell[2]:
            failures.append(
                f"{label}: param threads={params.get('threads')!r} "
                f"disagrees with label coordinate {cell[2]!r}"
            )
        if "serve.pred_hash" not in runs[label]["metrics"]["counters"]:
            failures.append(f"{label}: missing serve.pred_hash response digest")
    return failures


def serve_thread_invariance(runs):
    """Serving is bit-identical across worker-thread counts by contract
    (DESIGN.md §14): cells of one request stream that differ only in
    thread count must agree exactly on counters, deterministic gauges,
    and span keys. Any drift is concurrency nondeterminism."""
    failures = []
    groups = {}
    for label, run in runs.items():
        cell = parse_serve_cell(label)
        if cell is None:
            continue  # already reported by serve_labels_well_formed
        _, stream, threads = cell
        groups.setdefault(stream, {})[threads] = run
    for stream, by_threads in sorted(groups.items()):
        if len(by_threads) < 2:
            continue
        ref_threads = min(by_threads, key=lambda t: (len(t), t))
        ref = by_threads[ref_threads]["metrics"]
        for threads, run in sorted(by_threads.items()):
            if threads == ref_threads:
                continue
            label = f"serve/{stream}/t{threads}"
            m = run["metrics"]
            drift = counter_diffs(ref["counters"], m["counters"])
            if drift:
                failures.append(
                    f"{label}: counters drift from t{ref_threads} — "
                    f"concurrency nondeterminism ({'; '.join(drift)})"
                )
            drift = gauge_diffs(ref["gauges"], m["gauges"])
            if drift:
                failures.append(
                    f"{label}: gauges drift from t{ref_threads} ({'; '.join(drift)})"
                )
            if set(ref["spans"]) != set(m["spans"]):
                failures.append(f"{label}: span keys drift from t{ref_threads}")
    return failures


def serve_accuracy_floor(runs):
    """Every per-dataset serving accuracy must clear the absolute
    floor; a cell with no accuracy gauges at all is also a failure."""
    failures = []
    for label in sorted(runs):
        gauges = runs[label]["metrics"]["gauges"]
        accuracies = {k: v for k, v in gauges.items() if k.startswith("accuracy.")}
        if not accuracies:
            failures.append(f"{label}: no accuracy.* gauges")
            continue
        for key, value in sorted(accuracies.items()):
            if value < SERVE_ACCURACY_FLOOR:
                failures.append(
                    f"{label}: {key} = {value:.4f} fell below the serving "
                    f"floor {SERVE_ACCURACY_FLOOR}"
                )
    return failures


def serve_compare(baseline_doc, baseline_runs, fresh_doc, fresh_runs, max_ratio):
    """Returns a list of failure strings (empty = pass) for serve mode:
    exact conformance, thread invariance, accuracy floors, and a wall
    budget on ``serve.total`` only."""
    failures = []
    failures += serve_labels_well_formed(fresh_runs)
    failures += compare(baseline_runs, fresh_runs, max_ratio, span_key="serve.total")
    failures += serve_thread_invariance(fresh_runs)
    failures += serve_accuracy_floor(fresh_runs)
    if baseline_doc.get("datasets") != fresh_doc.get("datasets"):
        failures.append("datasets list drifted from the baseline")
    return failures


def serve_self_test(baseline_doc, baseline_runs, max_ratio):
    """Verifies the serve gate: identity passes, an injected wrong
    prediction fails, and an injected cross-thread counter divergence
    fails."""
    clean = serve_compare(
        baseline_doc,
        baseline_runs,
        copy.deepcopy(baseline_doc),
        copy.deepcopy(baseline_runs),
        max_ratio,
    )
    if clean:
        print("serve self-test FAILED: baseline does not pass against itself:")
        for msg in clean:
            print(f"  - {msg}")
        return 1

    cells = sorted(label for label in baseline_runs if parse_serve_cell(label))
    if len(cells) < 2:
        print("serve self-test FAILED: need at least two thread cells to doctor")
        return 1
    # The non-reference cell: doctoring it trips invariance, not just
    # the baseline diff.
    target = max(cells, key=lambda l: (len(parse_serve_cell(l)[2]), l))

    # Wrong prediction: a flipped label moves a per-dataset accuracy and
    # perturbs the response digest; both must be caught.
    flipped_doc = copy.deepcopy(baseline_doc)
    flipped_runs = {run["label"]: run for run in flipped_doc["runs"]}
    metrics = flipped_runs[target]["metrics"]
    acc_key = next(k for k in sorted(metrics["gauges"]) if k.startswith("accuracy."))
    metrics["gauges"][acc_key] = 1.0 - metrics["gauges"][acc_key]
    metrics["counters"]["serve.pred_hash"] ^= 1
    doctored = serve_compare(
        baseline_doc, baseline_runs, flipped_doc, flipped_runs, max_ratio
    )
    pred_failures = [m for m in doctored if "accuracy" in m or "pred_hash" in m]
    if not pred_failures:
        print(f"serve self-test FAILED: wrong prediction in {target} was not detected")
        return 1

    # Counter divergence: the same stream appears to have done different
    # work at a different thread count.
    forked_doc = copy.deepcopy(baseline_doc)
    forked_runs = {run["label"]: run for run in forked_doc["runs"]}
    forked_runs[target]["metrics"]["counters"]["serve.requests"] += 1
    doctored = serve_compare(
        baseline_doc, baseline_runs, forked_doc, forked_runs, max_ratio
    )
    fork_failures = [m for m in doctored if "nondeterminism" in m]
    if not fork_failures:
        print(
            f"serve self-test FAILED: cross-thread counter divergence in "
            f"{target} was not detected"
        )
        return 1

    print(
        f"serve self-test OK: identity passes, wrong prediction raises "
        f"{len(pred_failures)} failure(s), cross-thread divergence raises "
        f"{len(fork_failures)} nondeterminism failure(s)"
    )
    return 0


def git_output(args, repo=None):
    """Stdout of ``git <args>`` run in `repo` (default: the current
    directory), or None when git fails or this is not a checkout."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", *args],
            cwd=repo,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout
    except Exception:
        return None


def git_revision(repo=None):
    """Current short revision, or None outside a git checkout."""
    out = git_output(["rev-parse", "--short", "HEAD"], repo)
    return (out or "").strip() or None


def git_dirty(repo=None):
    """True when tracked files outside ``results/`` differ from ``HEAD``
    (None outside a git checkout). ``results/`` is excluded because the
    bench steps rewrite its documents before the trajectory is appended;
    anything else uncommitted means ``git_rev`` does not name the code
    that was measured."""
    out = git_output(
        ["diff", "--name-only", "HEAD", "--", ":(top)", ":(top,exclude)results"],
        repo,
    )
    return None if out is None else bool(out.strip())


def grid_fit_totals(path="results/GRID.json"):
    """Per-method ``fit.total`` sums (ms) from the conformance grid, or
    None when the grid document is absent or unreadable. The trajectory
    folds these in so per-PR wall-clock history covers the grid's cells
    without a second trajectory file."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        return None
    per_method = {}
    for run in doc.get("runs", []):
        ns = fit_total_ns(run)
        if ns is None:
            continue
        method = run.get("params", {}).get("method", "?")
        per_method[method] = per_method.get(method, 0) + ns
    if not per_method:
        return None
    return {method: round(ns / 1e6, 3) for method, ns in sorted(per_method.items())}


def serve_throughput(path="results/BENCH_serve.json"):
    """Per-cell serving throughput (requests/sec and p99 latency) from
    the serving benchmark, or None when the document is absent or
    unreadable. The trajectory folds these in so serving performance
    history rides in the same greppable file as the fit times."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        return None
    per_cell = {}
    for run in doc.get("runs", []):
        gauges = run.get("metrics", {}).get("gauges", {})
        rps, p99 = gauges.get("serve.rps"), gauges.get("serve.p99_ms")
        if rps is None and p99 is None:
            continue
        per_cell[run.get("label", "?")] = {
            "rps": round(rps, 1) if rps is not None else None,
            "p99_ms": round(p99, 3) if p99 is not None else None,
        }
    return dict(sorted(per_cell.items())) or None


def append_trajectory(
    path,
    fresh,
    failures,
    grid_path="results/GRID.json",
    serve_path="results/BENCH_serve.json",
    repo=None,
):
    """Appends a one-line JSON record for this invocation to `path`.

    The record carries what a reviewer needs to read performance history
    across PRs without the full result documents: when, at which
    revision (``dirty`` when the measured code was uncommitted changes on
    top of it), how long each run's fit took (plus the grid's per-method
    totals when ``results/GRID.json`` exists), and whether the gate
    passed. `repo` is the checkout to read the revision from (default:
    the current directory).
    """
    import datetime
    import os

    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_rev": git_revision(repo),
        "dirty": git_dirty(repo),
        "gate": "pass" if not failures else "fail",
        "failures": len(failures),
        "fit_total_ms": {
            label: round((fit_total_ns(run) or 0) / 1e6, 3)
            for label, run in sorted(fresh.items())
        },
        "sum_fit_total_ms": round(
            sum((fit_total_ns(run) or 0) for run in fresh.values()) / 1e6, 3
        ),
    }
    grid_ms = grid_fit_totals(grid_path)
    if grid_ms is not None:
        record["grid_method_fit_ms"] = grid_ms
        record["grid_sum_fit_total_ms"] = round(sum(grid_ms.values()), 3)
    throughput = serve_throughput(serve_path)
    if throughput is not None:
        record["serve_throughput"] = throughput
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"trajectory: appended {record['gate']} record to {path}")


def expect_load_failure(path, role, needle):
    """Asserts that loading `path` exits with a one-line message
    mentioning `needle`. Returns an error string on miss, None on pass."""
    try:
        load(path, role)
    except SystemExit as e:
        message = str(e)
        if "\n" in message:
            return f"load error for {path} is not one line: {message!r}"
        if needle not in message:
            return f"load error for {path} lacks {needle!r}: {message!r}"
        return None
    return f"loading {path} unexpectedly succeeded"


def self_test_load_errors():
    """Exercises the loader's failure messages against scratch files."""
    import os
    import tempfile

    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        missing = os.path.join(tmp, "nope.json")
        problems.append(expect_load_failure(missing, "baseline", "not found"))

        garbled = os.path.join(tmp, "garbled.json")
        with open(garbled, "w", encoding="utf-8") as f:
            f.write("{not json")
        problems.append(expect_load_failure(garbled, "fresh results", "not valid JSON"))

        wrong_version = os.path.join(tmp, "wrong_version.json")
        with open(wrong_version, "w", encoding="utf-8") as f:
            json.dump({"schema_version": 99, "runs": []}, f)
        problems.append(expect_load_failure(wrong_version, "baseline", "not supported"))

        not_object = os.path.join(tmp, "not_object.json")
        with open(not_object, "w", encoding="utf-8") as f:
            json.dump([1, 2, 3], f)
        problems.append(expect_load_failure(not_object, "baseline", "JSON object"))

    return [p for p in problems if p]


def self_test_trajectory(baseline):
    """Exercises the trajectory writer against scratch documents: serve
    throughput fields must appear when a serve document exists and must
    be absent when it does not, and ``dirty`` must tell a committed tree
    from uncommitted source edits in a scratch checkout."""
    import os
    import tempfile

    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        serve_path = os.path.join(tmp, "BENCH_serve.json")
        with open(serve_path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "schema_version": 2,
                    "runs": [
                        {
                            "label": "serve/mixed/t1",
                            "schema_version": 2,
                            "metrics": {
                                "counters": {},
                                "gauges": {"serve.rps": 1234.56, "serve.p99_ms": 6.789},
                                "spans": {},
                            },
                        }
                    ],
                },
                f,
            )
        missing = os.path.join(tmp, "missing.json")

        def last_record(traj):
            with open(traj, encoding="utf-8") as f:
                return json.loads(f.read().splitlines()[-1])

        with_serve = os.path.join(tmp, "with_serve.jsonl")
        append_trajectory(
            with_serve, baseline, [], grid_path=missing, serve_path=serve_path
        )
        record = last_record(with_serve)
        cell = record.get("serve_throughput", {}).get("serve/mixed/t1")
        if cell != {"rps": 1234.6, "p99_ms": 6.789}:
            problems.append(
                f"serve throughput not folded into the trajectory: "
                f"{record.get('serve_throughput')!r}"
            )

        without = os.path.join(tmp, "without_serve.jsonl")
        append_trajectory(
            without, baseline, [], grid_path=missing, serve_path=missing
        )
        if "serve_throughput" in last_record(without):
            problems.append(
                "serve_throughput present even though no serve document exists"
            )

        # `dirty` in a scratch checkout: clean at a commit, still clean
        # when only results/ changed, dirty when any other tracked file did
        repo = os.path.join(tmp, "repo")
        os.makedirs(os.path.join(repo, "results"))
        for name in ("code.rs", os.path.join("results", "BENCH.json")):
            with open(os.path.join(repo, name), "w", encoding="utf-8") as f:
                f.write("v1\n")
        for args in (
            ["init", "-q"],
            ["add", "-A"],
            ["-c", "user.name=t", "-c", "user.email=t@t", "-c",
             "commit.gpgsign=false", "commit", "-q", "-m", "init"],
        ):
            if git_output(args, repo) is None:
                problems.append(f"scratch checkout: git {args[0]} failed")
                return problems
        traj = os.path.join(tmp, "dirty.jsonl")

        def dirty_after(name, expected, what):
            if name is not None:
                with open(os.path.join(repo, name), "w", encoding="utf-8") as f:
                    f.write("v2\n")
            append_trajectory(
                traj, baseline, [], grid_path=missing, serve_path=missing, repo=repo
            )
            record = last_record(traj)
            if record.get("dirty") is not expected or not record.get("git_rev"):
                problems.append(
                    f"{what}: trajectory records dirty={record.get('dirty')!r} "
                    f"git_rev={record.get('git_rev')!r}, want dirty={expected}"
                )

        dirty_after(None, False, "committed tree")
        dirty_after(os.path.join("results", "BENCH.json"), False, "results/ rewritten")
        dirty_after("code.rs", True, "tracked source edited")
    return problems


def self_test(baseline, max_ratio):
    load_problems = self_test_load_errors()
    if load_problems:
        print("self-test FAILED: loader error messages are not actionable:")
        for msg in load_problems:
            print(f"  - {msg}")
        return 1

    clean = compare(baseline, copy.deepcopy(baseline), max_ratio)
    if clean:
        print("self-test FAILED: baseline does not pass against itself:")
        for msg in clean:
            print(f"  - {msg}")
        return 1

    slowed = copy.deepcopy(baseline)
    for run in slowed.values():
        span = run["metrics"]["spans"]["fit.total"]
        span["total_ns"] *= 2
        span["max_ns"] *= 2
    doctored = compare(baseline, slowed, max_ratio)
    wall_failures = [m for m in doctored if "regressed" in m]
    if not wall_failures:
        print("self-test FAILED: injected 2x slowdown was not detected")
        return 1

    trajectory_problems = self_test_trajectory(baseline)
    if trajectory_problems:
        print("self-test FAILED: trajectory writer problems:")
        for msg in trajectory_problems:
            print(f"  - {msg}")
        return 1

    print(
        f"self-test OK: loader errors are one-line and actionable, identity "
        f"passes, 2x slowdown raises {len(wall_failures)} wall-time failure(s), "
        f"trajectory folds serve throughput and flags a dirty tree"
    )
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--grid",
        action="store_true",
        help="check the conformance grid (results/GRID.json) instead of "
        "the pipeline benchmark; exact conformance, no wall-time budgets",
    )
    parser.add_argument(
        "--scaling",
        action="store_true",
        help="check the scaling frontier (results/BENCH_scaling.json) "
        "instead of the pipeline benchmark; exact conformance plus "
        "accuracy floors and pool-shrink proof, no wall-time budgets",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="check the serving benchmark (results/BENCH_serve.json) "
        "instead of the pipeline benchmark; exact conformance plus "
        "thread invariance and accuracy floors, wall budget on "
        "serve.total only",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed baseline (default: results/BENCH_pipeline.baseline.json, "
        "or results/GRID.baseline.json with --grid)",
    )
    parser.add_argument(
        "--fresh",
        default=None,
        help="freshly generated results (default: results/BENCH_pipeline.json, "
        "or results/GRID.json with --grid)",
    )
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=1.25,
        help="maximum allowed fit.total growth over baseline "
        "(default: %(default)s; ignored with --grid)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the gate itself: baseline passes against itself and "
        "doctored documents fail",
    )
    parser.add_argument(
        "--append-trajectory",
        nargs="?",
        const="results/BENCH_trajectory.jsonl",
        default=None,
        metavar="PATH",
        help="append a one-line JSON summary of the fresh results to PATH "
        "(default when given without a value: %(const)s)",
    )
    args = parser.parse_args()

    if sum((args.grid, args.scaling, args.serve)) > 1:
        parser.error("--grid, --scaling, and --serve are mutually exclusive")
    if args.serve:
        bench = "bench_serve"
        baseline_path = args.baseline or "results/BENCH_serve.baseline.json"
        fresh_path = args.fresh or "results/BENCH_serve.json"
        name = "serve conformance"
    elif args.grid:
        bench = "bench_grid"
        baseline_path = args.baseline or "results/GRID.baseline.json"
        fresh_path = args.fresh or "results/GRID.json"
        name = "grid conformance"
    elif args.scaling:
        bench = "bench_scaling"
        baseline_path = args.baseline or "results/BENCH_scaling.baseline.json"
        fresh_path = args.fresh or "results/BENCH_scaling.json"
        name = "scaling frontier"
    else:
        bench = "bench_pipeline"
        baseline_path = args.baseline or "results/BENCH_pipeline.baseline.json"
        fresh_path = args.fresh or "results/BENCH_pipeline.json"
        name = "bench regression"

    baseline_doc, baseline = load(baseline_path, "baseline", bench)
    if args.self_test:
        if args.serve:
            return serve_self_test(baseline_doc, baseline, args.max_ratio)
        if args.grid:
            return grid_self_test(baseline_doc, baseline)
        if args.scaling:
            return scaling_self_test(baseline_doc, baseline)
        return self_test(baseline, args.max_ratio)

    fresh_doc, fresh = load(fresh_path, "fresh results", bench)
    if args.serve:
        failures = serve_compare(baseline_doc, baseline, fresh_doc, fresh, args.max_ratio)
    elif args.grid:
        failures = grid_compare(baseline_doc, baseline, fresh_doc, fresh)
    elif args.scaling:
        failures = scaling_compare(baseline_doc, baseline, fresh_doc, fresh)
    else:
        failures = compare(baseline, fresh, args.max_ratio)
    if args.append_trajectory:
        append_trajectory(args.append_trajectory, fresh, failures)
    if failures:
        print(f"{name} check FAILED ({len(failures)} failure(s)):")
        for msg in failures:
            print(f"  - {msg}")
        return 1
    print(f"{name} check OK: {len(fresh)} runs match the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
