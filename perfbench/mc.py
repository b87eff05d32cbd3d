"""Monte Carlo workloads: Tables 2, 3 and 4 through ``repro.experiments``.

The timed job is what a researcher runs: ``table2``, then ``table34``
without and with a predicate, over six streams made from the seed.  The
seed also feeds ``run_trials(base_seed=...)``, which ``table34`` does not
expose, by binding it on the name ``table34`` calls.  The trial rows the
job computed are collected afterwards to check its outputs.

The traced run replaces the job by the same public functions called one
at a time from here (``stream_to_spark``, ``table2_stats_df``,
``run_trials``, the metric queries), each in a span.
"""
from __future__ import annotations

import itertools
import time
import uuid
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from common import (
    ALGOS,
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    Outcome,
    geomean,
    median,
    peak_rss_mb,
    pct,
    timed_observe,
    with_units,
)
from repro import experiments
from repro.datasets.streams import DATASET_NAMES, SPECS, generate, segment_truths
from repro.sparkops import trials
from repro.sparkops.metrics import (
    full_query_rmse,
    geomean_across_datasets,
    median_segment_rmse,
    summary_table,
)
from repro.sparkops.stream_df import stream_to_spark, table2_stats_df
from spans import Tracer

MODES = ("nopred", "pred")
KEY = ["dataset", "algo", "mode", "budget"]
TRIAL_KEY = KEY + ["trial"]
#: Table 2's reproduction tolerance against the paper, as in
#: benchmarks/bench_table2.py.
TABLE2_TOL = 0.02
#: Relative tolerance between Spark SQL aggregates and their pandas
#: recomputation (the two sum in different orders).
METRIC_RTOL = 1e-9


@dataclass(frozen=True)
class McConfig:
    n_records: int
    seg_len: int
    budgets: tuple[int, ...]
    n_trials: int


CONFIGS = {
    # The paper's record scale: 500k records in T = 5 segments of 100k.
    "mc-paper": McConfig(500_000, 100_000, (500, 2500, 5000), n_trials=4),
    # T = 67 short segments (the last one 1000 records).
    "mc-short-segments": McConfig(100_000, 1_500, (2500, 5000), n_trials=4),
}


def _job(spark, streams, cfg: McConfig, seed: int) -> dict:
    """The timed job: Tables 2-4 through ``repro.experiments``.

    ``table34`` unpersists its trial DataFrame before returning; the
    benchmark keeps it cached until it has collected the rows to check.
    """
    kept = []

    def run_trials(*args, **kwargs):
        df = trials.run_trials(*args, base_seed=seed, **kwargs)
        df.unpersist = lambda *a, **k: df
        kept.append(df)
        return df

    original, experiments.run_trials = experiments.run_trials, run_trials
    try:
        t0 = time.perf_counter()
        table2 = experiments.table2(spark, streams)
        t1 = time.perf_counter()
        tables = {
            mode: experiments.table34(
                spark, streams, mode=mode, budgets=cfg.budgets,
                n_trials=cfg.n_trials, highlight_budgets=cfg.budgets,
            )
            for mode in MODES
        }
        t2 = time.perf_counter()
    finally:
        experiments.run_trials = original
    rows = {}
    for mode, df in zip(MODES, kept):
        rows[mode] = df.toPandas()
        DataFrame.unpersist(df)
    return {"table2": table2, "sql": tables, "rows": rows,
            "job_s": t2 - t0, "table34_s": t2 - t1}


def _pass(spark, streams, cfg: McConfig, seed: int, tracer: Tracer) -> dict:
    """The job's calls made one at a time from here, each in a span."""
    out = {"rows": {}, "sql": {}}
    stats = []
    with tracer.span("job") as root:
        with tracer.span("experiments.table2"):
            for name, stream in streams.items():
                with tracer.span("stream_df.to_spark", spark=True):
                    df = stream_to_spark(spark, stream)
                with tracer.span("stream_df.stats_collect", spark=True):
                    stats.append(table2_stats_df(df, name).toPandas())
        t1 = time.perf_counter()
        for mode in MODES:
            with tracer.span(f"experiments.table34.{mode}"):
                with tracer.span("trials.run", spark=True):
                    results = trials.run_trials(
                        spark, streams, algorithms=list(ALGOS),
                        budgets=list(cfg.budgets), n_trials=cfg.n_trials,
                        modes=(mode,), base_seed=seed,
                    ).cache()
                    rows = results.toPandas()
                with tracer.span("metrics.collect", spark=True):
                    geo = geomean_across_datasets(results).toPandas()
                    sql = {
                        "per_dataset": median_segment_rmse(results).toPandas(),
                        "full_query": full_query_rmse(results).toPandas(),
                    }
                with tracer.span("metrics.summary"):
                    sql["summary"] = summary_table(
                        geo, mode=mode, highlight_budgets=cfg.budgets
                    )
                results.unpersist()
            out["rows"][mode], out["sql"][mode] = rows, sql
    table2 = pd.concat(stats, ignore_index=True)
    table2["p_paper"] = [SPECS[n].p for n in table2["dataset"]]
    table2["r_paper"] = [SPECS[n].r for n in table2["dataset"]]
    out.update(table2=table2, root=root, job_s=root["end"] - root["start"],
               table34_s=root["end"] - t1)
    return out


# -- output checks -------------------------------------------------------------
def recompute_metrics(rows: pd.DataFrame, mode: str, budgets) -> dict:
    """Pandas version of ``repro.sparkops.metrics`` over collected rows."""
    seg = rows[rows["segment"] >= 0].assign(sq=lambda d: (d["estimate"] - d["truth"]) ** 2)
    rmse = np.sqrt(seg.groupby(KEY + ["segment"])["sq"].mean())
    per_dataset = rmse.groupby(KEY).median().rename("median_rmse").reset_index()
    geo = (
        per_dataset.assign(lg=np.log(per_dataset["median_rmse"]))
        .groupby(["algo", "mode", "budget"])["lg"].mean().pipe(np.exp)
        .rename("geomean_rmse").reset_index()
    )
    full = rows[rows["segment"] == -1].assign(sq=lambda d: (d["estimate"] - d["truth"]) ** 2)
    full_query = np.sqrt(full.groupby(KEY)["sq"].mean()).rename("rmse").reset_index()
    return {
        "geo": geo,
        "per_dataset": per_dataset,
        "full_query": full_query,
        "summary": summary_table(geo, mode=mode, highlight_budgets=budgets),
    }


def _frames_equal(a: pd.DataFrame, b: pd.DataFrame, keys: list[str], value: str) -> bool:
    merged = a.merge(b, on=keys, how="outer", suffixes=("_a", "_b"), indicator=True)
    if not (merged["_merge"] == "both").all() or len(merged) != len(a):
        return False
    return bool(np.allclose(merged[f"{value}_a"], merged[f"{value}_b"],
                            rtol=METRIC_RTOL, atol=0.0))


def _summaries_equal(a: pd.DataFrame, b: pd.DataFrame) -> bool:
    if set(a.index) != set(b.index) or list(a.columns) != list(b.columns):
        return False
    return bool(np.allclose(a.loc[b.index].to_numpy(), b.to_numpy(),
                            rtol=METRIC_RTOL, atol=0.0))


def metrics_match(sql: dict, recomputed: dict) -> bool:
    return (
        _frames_equal(sql["per_dataset"], recomputed["per_dataset"], KEY, "median_rmse")
        and _frames_equal(sql["full_query"], recomputed["full_query"], KEY, "rmse")
        and _summaries_equal(sql["summary"], recomputed["summary"])
    )


def _replay(streams, grid_rows, seed: int, rows_by_trial: dict) -> list[dict]:
    """Re-run grid trials in this process and compare with their rows.

    Returns one record per trial: wall and CPU time, oracle calls, and
    whether every row (estimate and truth) matches bit for bit.
    """
    out, truths = [], {}
    for dataset, algo, mode, budget, trial in grid_rows:
        s = streams[dataset]
        pred = s.pred if mode == "pred" else np.ones(s.n_records, dtype=bool)
        w0, c0 = time.perf_counter(), time.process_time()
        res = trials.ALGORITHMS[algo](
            s.statistic, pred, s.proxy, seg_len=s.seg_len,
            total_budget=budget, seed=seed + trial,
        )
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if (dataset, mode) not in truths:
            f, m = s.statistic, s.pred
            full = float(f.mean()) if mode == "nopred" else (float(f[m].mean()) if m.any() else 0.0)
            truths[dataset, mode] = np.append(segment_truths(s, predicate=(mode == "pred")), full)
        expect = np.append(res["seg_estimates"], res["full_estimate"])
        expect_truth = truths[dataset, mode]
        got = rows_by_trial.get((dataset, algo, mode, budget, trial))
        same = (
            got is not None
            and len(got) == len(expect)
            and np.array_equal(got["estimate"].to_numpy(), expect)
            and np.array_equal(got["truth"].to_numpy(), expect_truth)
        )
        out.append({"key": (dataset, algo, mode, budget, trial), "algo": algo,
                    "budget": budget, "wall_ms": wall * 1e3, "cpu_s": cpu,
                    "oracle_calls": res["oracle_calls"], "same": same})
    return out


def _rows_by_trial(rows: pd.DataFrame, n_segments: int) -> tuple[dict, set]:
    """Trial key -> its rows ordered segments 0..T-1 then -1; and bad keys.

    A trial is bad when its rows are not exactly segments 0..T-1 and -1,
    or any estimate or truth is not finite.
    """
    by_trial, bad = {}, set()
    expected = list(range(n_segments)) + [-1]
    for key, grp in rows.groupby(TRIAL_KEY, sort=False):
        key = tuple(v.item() if hasattr(v, "item") else v for v in key)
        grp = grp.assign(order=grp["segment"].where(grp["segment"] >= 0, n_segments))
        grp = grp.sort_values("order")
        by_trial[key] = grp
        finite = np.isfinite(grp[["estimate", "truth"]].to_numpy()).all()
        if grp["segment"].tolist() != expected or not finite:
            bad.add(key)
    return by_trial, bad


def run(ctx) -> Outcome:
    cfg = CONFIGS[ctx.workload]
    spark, seed = ctx.spark, ctx.seed
    t0 = time.perf_counter()
    streams = {
        name: generate(name, n_records=cfg.n_records, seg_len=cfg.seg_len, seed=seed)
        for name in DATASET_NAMES
    }
    generate_s = time.perf_counter() - t0
    n_segments = next(iter(streams.values())).n_segments

    tracer = Tracer(uuid.uuid4().hex[:8], enabled=ctx.trace, sc=spark.sparkContext)
    if ctx.trace:
        jobs = ctx.timed(lambda: _pass(spark, streams, cfg, seed, tracer))
    else:
        jobs = ctx.timed(lambda: _job(spark, streams, cfg, seed))
    rss_mb = peak_rss_mb()
    last = jobs[-1]
    last["overhead_s"] = tracer.overhead_s

    # -- checks and failure accounting ----------------------------------------
    grid = list(itertools.product(DATASET_NAMES, ALGOS, MODES, cfg.budgets,
                                  range(cfg.n_trials)))
    by_trial, bad = {}, set()
    for mode in MODES:
        b, x = _rows_by_trial(last["rows"][mode], n_segments)
        by_trial.update(b)
        bad |= x
    bad |= set(grid) - set(by_trial)
    if ctx.trace:
        replay_keys = grid
    else:
        # One seeded trial per (algorithm, budget); dataset, mode and trial drawn.
        rng = np.random.default_rng([seed, 7])
        replay_keys = [
            (DATASET_NAMES[rng.integers(len(DATASET_NAMES))], a,
             MODES[rng.integers(len(MODES))], b, int(rng.integers(cfg.n_trials)))
            for a in ALGOS for b in cfg.budgets
        ]
    observe_ms: list[float] = []
    with tracer.span("replay"), timed_observe(tracer, observe_ms):
        replay = _replay(streams, replay_keys, seed, by_trial)
    bad |= {r["key"] for r in replay if not r["same"]}

    table2 = last["table2"].set_index("dataset")
    expect = pd.DataFrame({
        name: {"p": s.pred.mean(),
               "r": np.corrcoef(s.proxy, np.where(s.pred, s.statistic, 0.0))[0, 1]}
        for name, s in streams.items()
    }).T
    checks = {
        "table2_equals_numpy": bool(np.allclose(
            table2.loc[expect.index, ["p", "r"]].to_numpy(), expect.to_numpy(),
            rtol=METRIC_RTOL, atol=1e-12)),
        "replayed_trials_bit_identical": all(r["same"] for r in replay),
    }
    dev = (table2[["p", "r"]] - table2[["p_paper", "r_paper"]].to_numpy()).abs()
    for mode in MODES:
        recomputed = recompute_metrics(last["rows"][mode], mode, cfg.budgets)
        checks[f"metrics_sql_equal_pandas.{mode}"] = metrics_match(last["sql"][mode], recomputed)

    # -- end-to-end metrics ------------------------------------------------------
    summary = {m: last["sql"][m]["summary"] for m in MODES}
    inquest = [r for r in replay if r["algo"] == "inquest"]
    budget_spent = sum(r["oracle_calls"] for r in inquest) / sum(r["budget"] for r in inquest)
    job_s = median([j["job_s"] for j in jobs])
    ops_per_s = median([len(grid) / j["table34_s"] for j in jobs])
    setup_s = ctx.session_start_s + ctx.warmup_s + generate_s
    end_to_end = with_units({
        "setup_s": setup_s,
        "job_s": job_s,
        "ops_per_s": ops_per_s,
        "driver_peak_rss_mb": rss_mb,
        "oracle_budget_spent": budget_spent,
    }, END_TO_END_UNITS)

    report = {
        "setup_s": (setup_s, "s"),
        "job_s": (job_s, "s"),
        "trials_per_s": (ops_per_s, "1/s"),
        "driver_peak_rss_mb": (rss_mb, "MB"),
        "rmse_inquest_nopred": (summary["nopred"].loc["inquest", "All"], "abs"),
        "rmse_inquest_pred": (summary["pred"].loc["inquest", "All"], "abs"),
        "rmse_baselines": (geomean([summary[m].loc[a, "All"] for m in MODES
                                    for a in ("uniform", "stratified", "abae")]), "abs"),
        **{f"improvement_{a}.{m}": (summary[m].loc[f"improvement_{a}", "All"], "ratio")
           for m in MODES for a in ("uniform", "stratified", "abae")},
        "oracle_budget_spent": (budget_spent, "ratio"),
        # Reported, not gated: the generator misses the paper's r for
        # customer-support at some seeds (a known defect, see README.md).
        "table2_max_abs_dev_from_paper": (float(dev.to_numpy().max()), "abs"),
        "table2_outside_0.02": sorted(dev.index[(dev >= TABLE2_TOL).any(axis=1)]),
        "grid_trials": len(grid),
        "segments_per_stream": n_segments,
    }
    samples = {"job_s": len(jobs), "trials_per_s": len(jobs),
               "oracle_budget_spent": len(inquest)}

    per_layer = {}
    if ctx.trace:
        per_layer = _layers(ctx, streams, tracer, last, replay, observe_ms,
                            generate_s, len(grid), report, samples)
    return Outcome(
        end_to_end=end_to_end,
        per_layer=with_units(per_layer, PER_LAYER_UNITS),
        report=report,
        attempted=len(grid),
        failed=len(bad),
        checks=checks,
        spans=tracer,
        samples=samples,
    )


def _layers(ctx, streams, tracer, last, replay, observe_ms, generate_s, grid_rows,
            report, samples) -> dict:
    values = {
        "spark.session_start_s": ctx.session_start_s,
        "spark.warmup_s": ctx.warmup_s,
        "datasets.generate_s": generate_s,
    }
    for algo in ALGOS:
        recs = [r for r in replay if r["algo"] == algo]
        ms = [r["wall_ms"] for r in recs]
        values[f"core.{algo}.trial_ms_p50"] = pct(ms, 50)
        values[f"core.{algo}.trial_ms_p90"] = pct(ms, 90)
        values[f"core.{algo}.budget_spent"] = (
            sum(r["oracle_calls"] for r in recs) / sum(r["budget"] for r in recs))
        samples[f"core.{algo}.trial_ms"] = len(ms)
    cpu_s = sum(r["cpu_s"] for r in replay)
    run_s = tracer.total("trials.run")
    result_rows = sum(len(r) for r in last["rows"].values())
    # run_trials broadcasts each stream's arrays plus one mode's truths per call.
    payload = sum(s.statistic.nbytes + s.pred.nbytes + s.proxy.nbytes
                  + segment_truths(s, predicate=False).nbytes + 8
                  for s in streams.values())
    traced_s = tracer.total("job")
    self_s = tracer.self_times()
    values.update({
        "core.kernels.cpu_s": cpu_s,
        "core.inquest.observe_segment_ms_p50": pct(observe_ms, 50),
        "core.inquest.observe_segment_ms_p90": pct(observe_ms, 90),
        "trials.run_s": run_s,
        "trials.spark_jobs": tracer.total("trials.run", "spark_jobs"),
        "trials.tasks": tracer.total("trials.run", "tasks"),
        "trials.grid_rows": grid_rows,
        "trials.result_rows": result_rows,
        "trials.broadcast_bytes": payload * len(MODES),
        "trials.parallel_efficiency": cpu_s / (run_s * ctx.cores),
        "metrics.collect_s": tracer.total("metrics.collect"),
        "metrics.rows_in": result_rows,
        "metrics.spark_jobs": tracer.total("metrics.collect", "spark_jobs"),
        "stream_df.to_spark_s": tracer.total("stream_df.to_spark"),
        "stream_df.stats_collect_s": tracer.total("stream_df.stats_collect"),
        "stream_df.spark_jobs": tracer.total("stream_df.", "spark_jobs"),
        "trace.job_s": last["job_s"],
        "trace.overhead_share": last["overhead_s"] / traced_s,
        "trace.uncovered_s": self_s.get("job", 0.0),
    })
    samples["core.inquest.observe_segment_ms"] = len(observe_ms)
    report["self_s_by_layer"] = {k: round(v, 4) for k, v in sorted(self_s.items())}
    report["spark_jobs_settled"] = all(s.get("jobs_settled", True) for s in tracer.spans)
    return values
