//! # tpdb-bench
//!
//! Workload construction and measurement helpers shared by the Criterion
//! benches (`benches/fig5_wuo.rs`, `benches/fig6_negating.rs`,
//! `benches/fig7_outer_join.rs`) and the `experiments` binary that
//! regenerates the figures of the paper's evaluation section (see
//! `docs/EXPERIMENTS.md` at the workspace root).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;
use tpdb_core::{
    lawan, lawau, overlapping_windows, parallel_wuo_count, tp_left_outer_join, LawanStream,
    LawauStream, OverlapWindowStream, ThetaCondition,
};
use tpdb_storage::{Catalog, TpRelation, Value};
use tpdb_ta::{ta_left_outer_join, ta_negating_windows, ta_wuo_windows, ta_wuon_windows};

/// The two dataset families of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Webkit-like: many distinct join keys, selective θ (Fig. 5a/6a/7a).
    WebkitLike,
    /// Meteo-like: few distinct join keys, non-selective θ (Fig. 5b/6b/7b).
    MeteoLike,
}

impl Dataset {
    /// Human-readable label used in result tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Dataset::WebkitLike => "webkit",
            Dataset::MeteoLike => "meteo",
        }
    }

    /// The equi-join column of the dataset's workload.
    #[must_use]
    pub fn key_column(&self) -> &'static str {
        match self {
            Dataset::WebkitLike => "Key",
            Dataset::MeteoLike => "Metric",
        }
    }

    /// Generates the positive/negative relation pair and the θ condition of
    /// the experiments, with `tuples` tuples per relation.
    #[must_use]
    pub fn generate(&self, tuples: usize, seed: u64) -> Workload {
        match self {
            Dataset::WebkitLike => {
                let (r, s) = tpdb_datagen::webkit_like(tuples, seed);
                Workload {
                    dataset: *self,
                    theta: ThetaCondition::column_equals("Key", "Key"),
                    r,
                    s,
                }
            }
            Dataset::MeteoLike => {
                let (r, s) = tpdb_datagen::meteo_like(tuples, seed);
                Workload {
                    dataset: *self,
                    theta: ThetaCondition::column_equals("Metric", "Metric"),
                    r,
                    s,
                }
            }
        }
    }
}

/// A generated experiment input: two TP relations and a θ condition.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which dataset family generated the workload.
    pub dataset: Dataset,
    /// The join condition of the experiments.
    pub theta: ThetaCondition,
    /// Positive relation.
    pub r: TpRelation,
    /// Negative relation.
    pub s: TpRelation,
}

/// One measured data point of an experiment series.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Series name (e.g. `NJ`, `TA`, `NJ-WN`).
    pub series: String,
    /// Dataset label.
    pub dataset: String,
    /// Input cardinality per relation.
    pub tuples: usize,
    /// Wall-clock runtime in milliseconds.
    pub millis: f64,
    /// Number of produced windows / output tuples (sanity check that the
    /// compared systems do the same work).
    pub output: usize,
}

impl Measurement {
    /// Formats the measurement as a result-table row.
    #[must_use]
    pub fn row(&self) -> String {
        format!(
            "{:<8} {:<8} {:>10} {:>12.2} {:>12}",
            self.dataset, self.series, self.tuples, self.millis, self.output
        )
    }

    /// Renders the measurement as a JSON object (labels are plain ASCII
    /// identifiers, so no escaping is needed).
    #[must_use]
    pub fn json(&self) -> String {
        format!(
            r#"{{"dataset":"{}","series":"{}","tuples":{},"runtime_ms":{:.3},"output":{}}}"#,
            self.dataset, self.series, self.tuples, self.millis, self.output
        )
    }
}

/// Renders a series of measurements as a JSON array (the `BENCH_*.json`
/// format the perf-trajectory tooling reads).
#[must_use]
pub fn measurements_to_json(rows: &[Measurement]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&row.json());
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out.push('\n');
    out
}

/// Header matching [`Measurement::row`].
#[must_use]
pub fn header() -> String {
    format!(
        "{:<8} {:<8} {:>10} {:>12} {:>12}",
        "dataset", "series", "tuples", "runtime_ms", "output"
    )
}

fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1000.0, out)
}

/// Runs `f` `reps` times and reports the *minimum* elapsed time — the
/// standard low-noise estimator for repeatable work (the minimum skims
/// scheduler preemption, allocator warm-up and page-fault noise that a
/// single sample on a shared runner picks up).
fn time_min<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let (mut best_ms, mut out) = time(&mut f);
    for _ in 1..reps {
        let (ms, next) = time(&mut f);
        if ms < best_ms {
            best_ms = ms;
        }
        out = next;
    }
    (best_ms, out)
}

// ---------------------------------------------------------------------------
// Figure 5 — WUO: overlapping and unmatched windows
// ---------------------------------------------------------------------------

/// NJ side of Fig. 5: the streaming pipeline sweep overlap join → LAWAU.
/// Windows are consumed (counted) as they leave the pipeline, exactly as the
/// join operator consumes them — nothing is materialized.
#[must_use]
pub fn run_nj_wuo(w: &Workload) -> Measurement {
    let (millis, count) = time(|| {
        let wo = OverlapWindowStream::new(&w.r, &w.s, &w.theta).expect("θ binds");
        LawauStream::new(wo, &w.r).count()
    });
    Measurement {
        series: "NJ".to_owned(),
        dataset: w.dataset.label().to_owned(),
        tuples: w.r.len(),
        millis,
        output: count,
    }
}

/// The scaling series: the Fig. 5 NJ measurement (streaming sweep overlap
/// join → LAWAU, windows consumed as they leave the pipeline) executed with
/// morsel work-stealing parallelism at the given worker count. `threads =
/// 1` is the serial baseline the speedups of `BENCH_scaling.json` are
/// computed against. The series label is `NJ-P<threads>`.
#[must_use]
pub fn run_nj_wuo_parallel(w: &Workload, threads: usize) -> Measurement {
    let (millis, count) =
        time(|| parallel_wuo_count(&w.r, &w.s, &w.theta, threads).expect("θ binds"));
    Measurement {
        series: format!("NJ-P{threads}"),
        dataset: w.dataset.label().to_owned(),
        tuples: w.r.len(),
        millis,
        output: count,
    }
}

/// TA side of Fig. 5: the overlap join executed twice.
#[must_use]
pub fn run_ta_wuo(w: &Workload) -> Measurement {
    let (millis, windows) = time(|| ta_wuo_windows(&w.r, &w.s, &w.theta).expect("θ binds"));
    Measurement {
        series: "TA".to_owned(),
        dataset: w.dataset.label().to_owned(),
        tuples: w.r.len(),
        millis,
        output: windows.len(),
    }
}

// ---------------------------------------------------------------------------
// Figure 6 — negating windows
// ---------------------------------------------------------------------------

/// NJ-WN series of Fig. 6: LAWAN only (its input `WUO` is pre-computed and
/// not part of the measured time).
#[must_use]
pub fn run_nj_wn(w: &Workload) -> Measurement {
    let wo = overlapping_windows(&w.r, &w.s, &w.theta).expect("θ binds");
    let wuo = lawau(&wo, &w.r);
    let (millis, windows) = time(|| lawan(&wuo));
    Measurement {
        series: "NJ-WN".to_owned(),
        dataset: w.dataset.label().to_owned(),
        tuples: w.r.len(),
        millis,
        output: windows.len(),
    }
}

/// NJ-WUON series of Fig. 6: the full streaming pipeline overlap join →
/// LAWAU → LAWAN.
#[must_use]
pub fn run_nj_wuon(w: &Workload) -> Measurement {
    let (millis, count) = time(|| {
        let wo = OverlapWindowStream::new(&w.r, &w.s, &w.theta).expect("θ binds");
        LawanStream::new(LawauStream::new(wo, &w.r)).count()
    });
    Measurement {
        series: "NJ-WUON".to_owned(),
        dataset: w.dataset.label().to_owned(),
        tuples: w.r.len(),
        millis,
        output: count,
    }
}

/// TA series of Fig. 6: alignment-based negating windows including the
/// duplicate-eliminating union with `WUO`.
#[must_use]
pub fn run_ta_negating(w: &Workload) -> Measurement {
    let (millis, windows) = time(|| {
        // TA recomputes WUO as part of its union-based plan.
        let _negating = ta_negating_windows(&w.r, &w.s, &w.theta).expect("θ binds");
        ta_wuon_windows(&w.r, &w.s, &w.theta).expect("θ binds")
    });
    Measurement {
        series: "TA".to_owned(),
        dataset: w.dataset.label().to_owned(),
        tuples: w.r.len(),
        millis,
        output: windows.len(),
    }
}

// ---------------------------------------------------------------------------
// Figure 7 — TP left outer join end-to-end
// ---------------------------------------------------------------------------

/// NJ series of Fig. 7: the complete TP left outer join.
#[must_use]
pub fn run_nj_left_outer(w: &Workload) -> Measurement {
    let (millis, rel) = time(|| tp_left_outer_join(&w.r, &w.s, &w.theta).expect("θ binds"));
    Measurement {
        series: "NJ".to_owned(),
        dataset: w.dataset.label().to_owned(),
        tuples: w.r.len(),
        millis,
        output: rel.len(),
    }
}

/// TA series of Fig. 7: the complete TP left outer join via alignment, with
/// the nested-loop plans the paper observes for TA's end-to-end query.
#[must_use]
pub fn run_ta_left_outer(w: &Workload) -> Measurement {
    let (millis, rel) = time(|| ta_left_outer_join(&w.r, &w.s, &w.theta).expect("θ binds"));
    Measurement {
        series: "TA".to_owned(),
        dataset: w.dataset.label().to_owned(),
        tuples: w.r.len(),
        millis,
        output: rel.len(),
    }
}

// ---------------------------------------------------------------------------
// Set operations — streamed vs. materializing union, query-layer end-to-end
// ---------------------------------------------------------------------------

/// The streamed TP union (the [`tpdb_core::TpSetOpStream`] path the query
/// layer's cursors ride on), drained to a relation.
#[must_use]
pub fn run_union_streamed(w: &Workload) -> Measurement {
    let (millis, rel) = time(|| tpdb_core::tp_union(&w.r, &w.s).expect("union-compatible"));
    Measurement {
        series: "union-stream".to_owned(),
        dataset: w.dataset.label().to_owned(),
        tuples: w.r.len(),
        millis,
        output: rel.len(),
    }
}

/// The pre-streaming TP union reference
/// ([`tpdb_core::tp_union_materialized`]): both window passes fully
/// materialized before output formation. The `--check-union-streaming`
/// regression guard compares [`run_union_streamed`] against this series.
#[must_use]
pub fn run_union_materialized(w: &Workload) -> Measurement {
    let (millis, rel) =
        time(|| tpdb_core::tp_union_materialized(&w.r, &w.s).expect("union-compatible"));
    Measurement {
        series: "union-mat".to_owned(),
        dataset: w.dataset.label().to_owned(),
        tuples: w.r.len(),
        millis,
        output: rel.len(),
    }
}

/// The morsel-parallel TP union ([`tpdb_core::tp_set_op_parallel`]): both
/// union passes cut into work-stealing morsels at the given degree. At
/// `threads = 1` this takes the serial streamed path, so the
/// `union-steal-P1` vs `union-steal-P<n>` pair is the stealing overhead /
/// speedup curve of the setops figure. Output is byte-identical to
/// [`run_union_streamed`] by construction.
#[must_use]
pub fn run_union_parallel(w: &Workload, threads: usize) -> Measurement {
    let (millis, rel) = time(|| {
        tpdb_core::tp_set_op_parallel(&w.r, &w.s, tpdb_core::TpSetOpKind::Union, threads)
            .expect("union-compatible")
    });
    Measurement {
        series: format!("union-steal-P{threads}"),
        dataset: w.dataset.label().to_owned(),
        tuples: w.r.len(),
        millis,
        output: rel.len(),
    }
}

/// The three set operations end-to-end through the query layer: parse →
/// plan → `SetOpExec` → materialized result, on a fresh session (the first
/// execution pays the one-time parse + validate; it is noise at these
/// cardinalities, exactly as the `prepared` figure shows for joins).
#[must_use]
pub fn run_setops_query_layer(w: &Workload) -> Vec<Measurement> {
    let session = session_over(w);
    let (rname, sname) = (w.r.name(), w.s.name());
    let mut rows = Vec::new();
    for (series, kw) in [
        ("union-query", "UNION"),
        ("intersect-query", "INTERSECT"),
        ("except-query", "EXCEPT"),
    ] {
        let q = format!("SELECT * FROM {rname} {kw} SELECT * FROM {sname}");
        let (millis, output) = time(|| session.execute(&q).expect("set op runs").len());
        rows.push(Measurement {
            series: series.to_owned(),
            dataset: w.dataset.label().to_owned(),
            tuples: w.r.len(),
            millis,
            output,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Query-vs-core ratio: the session overhead guard
// ---------------------------------------------------------------------------

/// Measures the *same* TP left outer join twice — once as the core
/// [`tp_left_outer_join`] function and once end-to-end through a prepared
/// session statement pinned to serial execution — so the two series differ
/// only in the query-layer envelope (plan-cache lookup, parameter binding,
/// scan operators, output materialization). This is the apples-to-apples
/// pair the `ratio` figure and the `--check-query-overhead` CI guard are
/// built on; the `prepared` figure is *not* comparable to Fig. 7 because
/// its join series is a TP anti join.
///
/// Two series: `core` (the direct function call) and `session` (prepared
/// once — parse + plan cost excluded, exactly like `join-prepared` — then
/// one timed execution). `output` is the result cardinality, asserted
/// identical across the pair.
#[must_use]
pub fn run_query_core_ratio(w: &Workload) -> Vec<Measurement> {
    let key = w.dataset.key_column();
    let (rname, sname) = (w.r.name(), w.s.name());

    // Untimed warm-up so the first measured series does not absorb the
    // fresh workload's cold-cache cost (same convention as the setops
    // figure).
    let _ = tp_left_outer_join(&w.r, &w.s, &w.theta).expect("θ binds");
    let (core_ms, core_out) = time(|| {
        tp_left_outer_join(&w.r, &w.s, &w.theta)
            .expect("θ binds")
            .len()
    });

    let mut session = session_over(w);
    // The core function is serial; pin the session to the same pipeline so
    // the ratio isolates query-layer overhead rather than comparing serial
    // against partitioned execution.
    session.set_parallelism(1);
    let q = format!("SELECT * FROM {rname} TP LEFT JOIN {sname} ON {rname}.{key} = {sname}.{key}");
    let stmt = session.prepare(&q).expect("query prepares");
    let (session_ms, session_out) = time(|| stmt.execute(&[]).expect("query runs").len());

    assert_eq!(
        core_out, session_out,
        "core and session must compute the same join"
    );
    let row = |series: &str, millis: f64, output: usize| Measurement {
        series: series.to_owned(),
        dataset: w.dataset.label().to_owned(),
        tuples: w.r.len(),
        millis,
        output,
    };
    vec![
        row("core", core_ms, core_out),
        row("session", session_ms, session_out),
    ]
}

// ---------------------------------------------------------------------------
// Prepared-vs-reparse: the session front-end contract
// ---------------------------------------------------------------------------

/// Builds a [`Session`](tpdb_query::Session) over the workload's two
/// relations.
fn session_over(w: &Workload) -> tpdb_query::Session {
    let mut catalog = tpdb_storage::Catalog::new();
    catalog.register(w.r.clone()).expect("fresh catalog");
    catalog.register(w.s.clone()).expect("fresh catalog");
    tpdb_query::Session::new(catalog)
}

/// Measures the session front-end's *prepare once, bind many* contract on
/// the workload's WUO query (the TP anti join — the operator whose answer
/// is exactly the unmatched/negating window mass of Fig. 5) and on a cheap
/// parameterized scan where the parse + validate cost is a visible
/// fraction of the per-execution time.
///
/// Four series, `iterations` executions each:
///
/// * `join-reparse` / `scan-reparse` — every execution re-parses the text,
///   re-binds the parameters and re-plans against the catalog (a
///   one-shot front-end without a plan cache).
/// * `join-prepared` / `scan-prepared` — prepared once through
///   [`tpdb_query::Session::prepare`], then bound and executed
///   `iterations` times.
///
/// The recorded `runtime_ms` is the *mean per execution*; `output` is the
/// result cardinality (identical across the paired series by
/// construction).
#[must_use]
pub fn run_prepared_vs_reparse(w: &Workload, iterations: usize) -> Vec<Measurement> {
    use tpdb_query::{execute_plan_with, parse_query, QueryOptions};
    use tpdb_storage::Value;
    assert!(iterations >= 1);
    let key = w.dataset.key_column();
    let (rname, sname) = (w.r.name(), w.s.name());
    let join_q =
        format!("SELECT * FROM {rname} TP ANTI JOIN {sname} ON {rname}.{key} = {sname}.{key}");
    let scan_q = format!("SELECT * FROM {rname} WHERE {key} >= $1");
    let scan_params = [Value::Int(0)];

    let session = session_over(w);
    let options = QueryOptions::default();
    let mut rows = Vec::new();
    let mut record = |series: &str, millis: f64, output: usize| {
        rows.push(Measurement {
            series: series.to_owned(),
            dataset: w.dataset.label().to_owned(),
            tuples: w.r.len(),
            millis,
            output,
        });
    };

    // Re-parse + re-plan per execution (the pre-session contract).
    let reparse = |text: &str, params: &[Value]| {
        let (millis, output) = time(|| {
            let mut output = 0;
            for _ in 0..iterations {
                let plan = parse_query(text).expect("query parses");
                let bound = plan.bind_parameters(params).expect("parameters bind");
                output = execute_plan_with(session.catalog(), &bound, &options)
                    .expect("query runs")
                    .len();
            }
            output
        });
        (millis / iterations as f64, output)
    };
    // Prepare once, bind and execute many times.
    let prepared = |text: &str, params: &[Value]| {
        let stmt = session.prepare(text).expect("query prepares");
        let (millis, output) = time(|| {
            let mut output = 0;
            for _ in 0..iterations {
                output = stmt.execute(params).expect("query runs").len();
            }
            output
        });
        (millis / iterations as f64, output)
    };

    let (millis, output) = reparse(&join_q, &[]);
    record("join-reparse", millis, output);
    let (millis, output) = prepared(&join_q, &[]);
    record("join-prepared", millis, output);
    let (millis, output) = reparse(&scan_q, &scan_params);
    record("scan-reparse", millis, output);
    let (millis, output) = prepared(&scan_q, &scan_params);
    record("scan-prepared", millis, output);
    rows
}

// ---------------------------------------------------------------------------
// Snapshot figure — datagen regen vs. snapshot load vs. CSV import
// ---------------------------------------------------------------------------

/// Renders a TP relation as delimiter-separated text in the
/// [`Catalog::import_delimited`] wire format: one record per tuple holding
/// the fact columns, interval start, interval end and probability. Strings
/// are always quoted (with `""` escaping), NULL is the empty field.
#[must_use]
pub fn relation_to_delimited(rel: &TpRelation, delimiter: char) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for tuple in rel.tuples() {
        for value in tuple.facts() {
            match value {
                Value::Null => {}
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Int(i) => {
                    let _ = write!(out, "{i}");
                }
                Value::Float(f) => {
                    let _ = write!(out, "{f}");
                }
                Value::Str(s) => {
                    out.push('"');
                    out.push_str(&s.replace('"', "\"\""));
                    out.push('"');
                }
            }
            out.push(delimiter);
        }
        let _ = writeln!(
            out,
            "{}{delimiter}{}{delimiter}{}",
            tuple.interval().start(),
            tuple.interval().end(),
            tuple.probability()
        );
    }
    out
}

/// The names of the two relations a dataset's generator produces (the
/// snapshot-backed workload cache looks them up after a load).
#[must_use]
pub fn dataset_relation_names(dataset: Dataset) -> (&'static str, &'static str) {
    match dataset {
        Dataset::WebkitLike => ("webkit_r", "webkit_s"),
        Dataset::MeteoLike => ("meteo_r", "meteo_s"),
    }
}

/// Returns the workload for `(dataset, tuples, seed)`, served from a binary
/// snapshot cache under the system temp directory when one exists. The
/// first request at a scale pays the datagen cost and saves a snapshot;
/// later runs (or later figures in the same sweep) load it instead —
/// datagen regeneration dominates setup time at the paper-scale
/// cardinalities, which is exactly what `BENCH_load.json` quantifies. Any
/// cache failure falls back to plain generation.
#[must_use]
pub fn workload_via_cache(dataset: Dataset, tuples: usize, seed: u64) -> Workload {
    let dir = std::env::temp_dir().join("tpdb-bench-cache");
    if std::fs::create_dir_all(&dir).is_err() {
        return dataset.generate(tuples, seed);
    }
    let path = dir.join(format!("{}-{tuples}-{seed}.snap", dataset.label()));
    let mut catalog = Catalog::new();
    if catalog.load_snapshot(&path).is_ok() {
        let (rname, sname) = dataset_relation_names(dataset);
        if let (Ok(r), Ok(s)) = (catalog.relation(rname), catalog.relation(sname)) {
            return Workload {
                dataset,
                theta: ThetaCondition::column_equals(dataset.key_column(), dataset.key_column()),
                r: r.as_ref().clone(),
                s: s.as_ref().clone(),
            };
        }
    }
    let w = dataset.generate(tuples, seed);
    let mut fresh = Catalog::new();
    if fresh.register(w.r.clone()).is_ok() && fresh.register(w.s.clone()).is_ok() {
        if let Err(e) = fresh.save_snapshot(&path) {
            eprintln!("workload cache write failed ({e}); continuing uncached");
        }
    }
    w
}

/// The `snapshot` figure: the cost of bringing the meteo workload into a
/// catalog three ways — regenerating it with tpdb-datagen (`datagen`),
/// loading a binary snapshot (`snap-save`/`snap-load`), and importing CSV
/// text (`csv-import`) — at the same cardinality. The snapshot and CSV
/// inputs are prepared from the generated workload itself, so every series
/// brings in the identical pair of relations and `output` is the total
/// tuple count across both.
#[must_use]
pub fn run_snapshot_load(tuples: usize, seed: u64, dir: &std::path::Path) -> Vec<Measurement> {
    let (datagen_ms, w) = time(|| Dataset::MeteoLike.generate(tuples, seed));

    let mut catalog = Catalog::new();
    catalog.register(w.r.clone()).expect("fresh catalog");
    catalog.register(w.s.clone()).expect("fresh catalog");
    let snap = dir.join(format!("bench-meteo-{tuples}-{seed}.snap"));
    let (save_ms, ()) = time(|| catalog.save_snapshot(&snap).expect("snapshot writes"));
    let (load_ms, loaded) = time_min(3, || {
        let mut c = Catalog::new();
        c.load_snapshot(&snap).expect("snapshot loads");
        c.relation_names()
            .iter()
            .map(|n| c.relation(n).expect("listed relation").len())
            .sum::<usize>()
    });
    std::fs::remove_file(&snap).ok();

    let csv_r = relation_to_delimited(&w.r, ',');
    let csv_s = relation_to_delimited(&w.s, ',');
    let (import_ms, imported) = time_min(2, || {
        let mut c = Catalog::new();
        c.import_delimited("meteo_csv_r", w.r.schema().clone(), ',', &csv_r)
            .expect("csv imports")
            .len()
            + c.import_delimited("meteo_csv_s", w.s.schema().clone(), ',', &csv_s)
                .expect("csv imports")
                .len()
    });

    let row = |series: &str, millis: f64, output: usize| Measurement {
        series: series.to_owned(),
        dataset: "meteo".to_owned(),
        tuples,
        millis,
        output,
    };
    vec![
        row("datagen", datagen_ms, w.r.len() + w.s.len()),
        row("snap-save", save_ms, w.r.len() + w.s.len()),
        row("snap-load", load_ms, loaded),
        row("csv-import", import_ms, imported),
    ]
}

/// `sorted` must be ascending; returns the latency at quantile `q` (0..=1)
/// by nearest-rank, or `0.0` for an empty sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let idx = ((n - 1) as f64 * q).round() as usize;
            *sorted.get(idx.min(n - 1)).unwrap_or(&0.0)
        }
    }
}

/// The throughput figure: the workload's TP left outer join hammered
/// through the `tpdb-server` front-end at each concurrency level, against a
/// serial in-process [`Session`](tpdb_query::Session) baseline doing the
/// identical work (execute + render the wire rows, minus the socket).
///
/// Per concurrency level `n` the server admits `n` statements at once; `n`
/// client threads each issue `rounds` queries back-to-back and every response is
/// asserted byte-identical to the serial reference rendering — the
/// correctness half of the figure. Series produced:
///
/// * `serial` — wall-clock of `rounds` session executions (qps baseline),
/// * `c<n>` — wall-clock of the concurrent run (`output` = total queries,
///   so `output / millis` is the qps). Note the *raw wall-clock grows with
///   `n`* because higher levels execute more statements — reading `c1` vs
///   `c4` runtimes as a scaling curve inverts the result,
/// * `c<n>-qps` — the normalized rate: statements per wall-clock *second*,
///   stored in the `runtime_ms` field (`output` = total statements). This
///   is the series to compare across concurrency levels,
/// * `c<n>-p50` / `c<n>-p99` — client-observed latency percentiles in ms,
/// * `machine-cores` — the host's hardware parallelism (`output`), recorded
///   so the scaling expectation of `BENCH_throughput.json` can be judged:
///   on a single-core host the concurrency curve is flat by construction.
#[must_use]
pub fn run_throughput(w: &Workload, concurrency: &[usize], rounds: usize) -> Vec<Measurement> {
    use tpdb_server::{protocol, Client, Server, ServerConfig};

    let (rname, sname) = dataset_relation_names(w.dataset);
    let key = w.dataset.key_column();
    let query =
        format!("SELECT * FROM {rname} TP LEFT JOIN {sname} ON {rname}.{key} = {sname}.{key}");
    let catalog = || {
        let mut c = Catalog::new();
        c.register(w.r.clone()).expect("fresh catalog");
        c.register(w.s.clone()).expect("fresh catalog");
        c
    };

    let row = |series: String, millis: f64, output: usize| Measurement {
        series,
        dataset: w.dataset.label().to_owned(),
        tuples: w.r.len(),
        millis,
        output,
    };
    let mut rows = Vec::new();

    // Serial baseline: one session, `rounds` executions, rendering the
    // same wire rows the server renders. The first execution doubles as
    // the byte-identity reference and warms the session plan cache, like
    // the server's first request warms the shared cache.
    let mut session = tpdb_query::Session::new(catalog());
    session.set_parallelism(1);
    let reference =
        protocol::render_relation_rows(&session.execute(&query).expect("reference query runs"));
    let (serial_ms, ()) = time(|| {
        for _ in 0..rounds {
            let rendered = protocol::render_relation_rows(
                &session.execute(&query).expect("serial query runs"),
            );
            assert_eq!(rendered.len(), reference.len(), "serial run diverged");
        }
    });
    rows.push(row("serial".to_owned(), serial_ms, rounds));

    for &n in concurrency {
        let server = Server::start(
            catalog(),
            ServerConfig {
                workers: n,
                queue_depth: 2 * n.max(4),
                parallelism: 1,
            },
        )
        .expect("server starts");
        let addr = server.local_addr();

        let started = Instant::now();
        let mut latencies: Vec<f64> = Vec::with_capacity(n * rounds);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|client_id| {
                    let (query, reference) = (&query, &reference);
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("client connects");
                        let mut samples = Vec::with_capacity(rounds);
                        for round in 0..rounds {
                            let t0 = Instant::now();
                            let response = client.query(query).expect("concurrent query runs");
                            samples.push(t0.elapsed().as_secs_f64() * 1000.0);
                            assert!(
                                response.rows == *reference,
                                "client {client_id} round {round}: response diverged from \
                                 the serial reference"
                            );
                        }
                        client.close().ok();
                        samples
                    })
                })
                .collect();
            for handle in handles {
                latencies.extend(handle.join().expect("client thread panicked"));
            }
        });
        let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
        server.shutdown();

        latencies.sort_by(f64::total_cmp);
        rows.push(row(format!("c{n}"), wall_ms, n * rounds));
        // The normalized rate, so levels are comparable without dividing
        // by hand (the raw c<n> wall-clock covers n·rounds statements and
        // *grows* with n — it is not a scaling curve).
        let qps = if wall_ms > 0.0 {
            (n * rounds) as f64 * 1000.0 / wall_ms
        } else {
            0.0
        };
        rows.push(row(format!("c{n}-qps"), qps, n * rounds));
        rows.push(row(
            format!("c{n}-p50"),
            percentile(&latencies, 0.50),
            n * rounds,
        ));
        rows.push(row(
            format!("c{n}-p99"),
            percentile(&latencies, 0.99),
            n * rounds,
        ));
    }

    rows.push(row(
        "machine-cores".to_owned(),
        0.0,
        tpdb_core::default_parallelism(),
    ));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_generation_produces_both_datasets() {
        let w = Dataset::WebkitLike.generate(500, 1);
        assert_eq!(w.r.len(), 500);
        assert_eq!(w.s.len(), 500);
        let m = Dataset::MeteoLike.generate(500, 1);
        assert_eq!(m.r.len(), 500);
        assert_eq!(m.theta.to_string(), "r.Metric = s.Metric");
    }

    #[test]
    fn nj_and_ta_measure_the_same_window_counts() {
        for dataset in [Dataset::WebkitLike, Dataset::MeteoLike] {
            let w = dataset.generate(300, 7);
            let nj = run_nj_wuo(&w);
            let ta = run_ta_wuo(&w);
            assert_eq!(nj.output, ta.output, "{dataset:?} WUO");
            let njn = run_nj_wuon(&w);
            let tan = run_ta_negating(&w);
            assert_eq!(njn.output, tan.output, "{dataset:?} WUON");
            let njj = run_nj_left_outer(&w);
            let taj = run_ta_left_outer(&w);
            assert_eq!(njj.output, taj.output, "{dataset:?} left outer join");
        }
    }

    #[test]
    fn parallel_wuo_counts_match_the_serial_series() {
        for dataset in [Dataset::WebkitLike, Dataset::MeteoLike] {
            let w = dataset.generate(300, 7);
            let serial = run_nj_wuo(&w);
            for threads in [1, 2, 4] {
                let parallel = run_nj_wuo_parallel(&w, threads);
                assert_eq!(parallel.output, serial.output, "{dataset:?} P={threads}");
                assert_eq!(parallel.series, format!("NJ-P{threads}"));
            }
        }
    }

    #[test]
    fn setops_series_agree_on_outputs() {
        let w = Dataset::MeteoLike.generate(300, 7);
        let streamed = run_union_streamed(&w);
        let materialized = run_union_materialized(&w);
        assert_eq!(streamed.output, materialized.output);
        for threads in [1, 2, 4] {
            let stolen = run_union_parallel(&w, threads);
            assert_eq!(stolen.output, streamed.output, "P={threads}");
            assert_eq!(stolen.series, format!("union-steal-P{threads}"));
        }
        let query_rows = run_setops_query_layer(&w);
        assert_eq!(query_rows.len(), 3);
        let union_query = query_rows
            .iter()
            .find(|m| m.series == "union-query")
            .expect("union-query series");
        assert_eq!(union_query.output, streamed.output);
    }

    #[test]
    fn ratio_series_agree_on_outputs() {
        let w = Dataset::MeteoLike.generate(300, 7);
        let rows = run_query_core_ratio(&w);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].series, "core");
        assert_eq!(rows[1].series, "session");
        // Same join, same cardinality — on both sides of the ratio and
        // against the Fig. 7 NJ series it claims to match.
        assert_eq!(rows[0].output, rows[1].output);
        assert_eq!(rows[0].output, run_nj_left_outer(&w).output);
    }

    #[test]
    fn prepared_and_reparse_series_agree_on_outputs() {
        let w = Dataset::MeteoLike.generate(300, 7);
        let rows = run_prepared_vs_reparse(&w, 2);
        assert_eq!(rows.len(), 4);
        let by_series = |name: &str| {
            rows.iter()
                .find(|m| m.series == name)
                .unwrap_or_else(|| panic!("missing series {name}"))
        };
        assert_eq!(
            by_series("join-reparse").output,
            by_series("join-prepared").output
        );
        assert_eq!(
            by_series("scan-reparse").output,
            by_series("scan-prepared").output
        );
        // the scan returns every r tuple (Metric >= 0 always holds)
        assert_eq!(by_series("scan-prepared").output, w.r.len());
    }

    #[test]
    fn snapshot_series_bring_in_the_same_data() {
        let rows = run_snapshot_load(500, 7, &std::env::temp_dir());
        assert_eq!(rows.len(), 4);
        let by = |name: &str| {
            rows.iter()
                .find(|m| m.series == name)
                .unwrap_or_else(|| panic!("missing series {name}"))
        };
        // the snapshot load brings back every saved tuple
        assert_eq!(by("snap-load").output, by("datagen").output);
        // the CSV import covers both relations, like the catalog-level series
        assert_eq!(by("csv-import").output, by("datagen").output);
    }

    #[test]
    fn throughput_series_cover_serial_and_every_concurrency_level() {
        let w = Dataset::MeteoLike.generate(120, 7);
        let rows = run_throughput(&w, &[1, 2], 2);
        let series: Vec<&str> = rows.iter().map(|m| m.series.as_str()).collect();
        for expected in [
            "serial",
            "c1",
            "c1-qps",
            "c1-p50",
            "c1-p99",
            "c2",
            "c2-qps",
            "c2-p50",
            "c2-p99",
            "machine-cores",
        ] {
            assert!(series.contains(&expected), "missing {expected}: {series:?}");
        }
        let by = |name: &str| {
            rows.iter()
                .find(|m| m.series == name)
                .unwrap_or_else(|| panic!("missing series {name}"))
        };
        // output is the query count the qps is computed from
        assert_eq!(by("serial").output, 2);
        assert_eq!(by("c2").output, 4);
        // the qps row really is a rate: statements / wall seconds
        let c2 = by("c2");
        let expected_qps = c2.output as f64 * 1000.0 / c2.millis;
        assert!((by("c2-qps").millis - expected_qps).abs() < 1e-6);
        // p50 <= p99 by construction, and the core count is at least 1
        assert!(by("c2-p50").millis <= by("c2-p99").millis);
        assert!(by("machine-cores").output >= 1);
    }

    #[test]
    fn delimited_rendering_round_trips_through_the_importer() {
        let w = Dataset::MeteoLike.generate(300, 7);
        let csv = relation_to_delimited(&w.r, ',');
        let mut c = Catalog::new();
        let imported = c
            .import_delimited("roundtrip", w.r.schema().clone(), ',', &csv)
            .expect("rendered text imports");
        assert_eq!(imported.len(), w.r.len());
        for (orig, back) in w.r.tuples().iter().zip(imported.tuples()) {
            assert_eq!(orig.facts(), back.facts());
            assert_eq!(orig.interval(), back.interval());
            assert!((orig.probability() - back.probability()).abs() < 1e-12);
        }
    }

    #[test]
    fn workload_cache_serves_identical_relations() {
        let first = workload_via_cache(Dataset::MeteoLike, 250, 99);
        let second = workload_via_cache(Dataset::MeteoLike, 250, 99);
        assert_eq!(first.r, second.r);
        assert_eq!(first.s, second.s);
        assert_eq!(first.r, Dataset::MeteoLike.generate(250, 99).r);
    }

    #[test]
    fn measurement_rows_align_with_header() {
        let w = Dataset::WebkitLike.generate(100, 1);
        let m = run_nj_wuo(&w);
        assert_eq!(header().split_whitespace().count(), 5);
        assert_eq!(m.row().split_whitespace().count(), 5);
    }
}
