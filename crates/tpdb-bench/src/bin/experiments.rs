//! The experiment driver regenerating the figures of the paper's evaluation
//! section (Section IV) as result tables.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p tpdb-bench --bin experiments            # all figures, default scale
//! cargo run --release -p tpdb-bench --bin experiments -- fig5    # only Fig. 5
//! cargo run --release -p tpdb-bench --bin experiments -- fig7 --full   # paper-scale cardinalities
//! cargo run --release -p tpdb-bench --bin experiments -- ablation
//! cargo run --release -p tpdb-bench --bin experiments -- fig5 --smoke --json --check-nj-wuo
//! cargo run --release -p tpdb-bench --bin experiments -- scaling --json --threads 1,2,4,8
//! cargo run --release -p tpdb-bench --bin experiments -- scaling --smoke --json --threads 1,2,4 --check-scaling
//! cargo run --release -p tpdb-bench --bin experiments -- check-baselines
//! cargo run --release -p tpdb-bench --bin experiments -- prepared --json
//! cargo run --release -p tpdb-bench --bin experiments -- setops --smoke --json --check-union-streaming
//! cargo run --release -p tpdb-bench --bin experiments -- ratio --smoke --json --check-query-overhead
//! cargo run --release -p tpdb-bench --bin experiments -- snapshot --smoke --json --check-load-speedup
//! cargo run --release -p tpdb-bench --bin experiments -- throughput --smoke --json --check-throughput
//! ```
//!
//! Default cardinalities are scaled down from the paper's 40K–200K so that
//! the whole sweep finishes in a few minutes on a laptop; `--full` switches
//! to the paper's sizes (expect the TA series of Fig. 7 to run for a long
//! time — the nested-loop degradation is the point of that figure), and
//! `--smoke` to the reduced CI scale.
//!
//! * `--json` writes each figure's measurements to `BENCH_<figure>.json` in
//!   the current directory (the perf-trajectory format).
//! * `--check-nj-wuo` exits non-zero when the NJ series of Fig. 5 is slower
//!   than the TA series on the meteo workload at the largest measured scale
//!   — the CI regression guard for the LAWAU hot path.
//! * `--check-union-streaming` exits non-zero when the streamed TP union of
//!   the `setops` figure is slower than the pre-streaming materializing
//!   reference (beyond a 10% noise margin) at the largest measured scale —
//!   the CI regression guard for the set-operation streaming path.
//! * `--check-query-overhead` exits non-zero when the session-executed TP
//!   left outer join of the `ratio` figure is more than 1.2× slower than
//!   the core function on the meteo workload at the largest measured scale
//!   — the CI regression guard for query-layer overhead. Unlike the
//!   `prepared` figure (whose join series is a TP anti join), both sides of
//!   `ratio` run the *same* join kind serially, so the comparison is
//!   apples-to-apples.
//! * `--check-load-speedup` exits non-zero when the ingest overhead of
//!   loading the binary snapshot of the meteo workload — wall-clock net of
//!   the in-memory construction floor measured by the `datagen` series —
//!   is less than 10× smaller than the overhead of importing the same data
//!   as CSV text, at the largest scale of the `snapshot` figure (recorded
//!   as `BENCH_load.json`). The CI regression guard for the read path.
//! * `--check-throughput` exits non-zero when the `throughput` figure's
//!   concurrent server run underperforms its expectation for the host: on a
//!   machine with ≥ 4 cores, 4 concurrent clients must reach at least 2× the
//!   1-client qps; on smaller hosts (where the curve is flat by
//!   construction) the 4-client qps must stay within 0.8× of the 1-client
//!   qps — i.e. sharing the server may cost a client at most 20%.
//!   The recorded `machine-cores` series says which branch was asserted.
//! * `--check-scaling` exits non-zero when the `scaling` figure's
//!   work-stealing parallel NJ underperforms its expectation for the host:
//!   on a machine with ≥ 4 cores, `NJ-P4` must be at least 2× faster than
//!   the serial `NJ-P1`; on smaller hosts (where the speedup curve is flat
//!   by construction) `NJ-P4` may cost at most 15% over `NJ-P1` — the
//!   morsel scheduler's overhead bound. The recorded `machine-cores` series
//!   says which branch was asserted.
//! * `--threads 1,2,4` selects the worker counts of the `scaling` figure
//!   (morsel work-stealing parallel NJ on the meteo WUO workload; implies
//!   `scaling`) and prints/records speedups against the serial `NJ-P1`
//!   baseline. Speedup is bounded by the machine — on a single-core host
//!   the curve is flat by construction.
//! * `check-baselines` (a subcommand, not a flag) compares the
//!   freshly written `BENCH_*_smoke.json` files in the current directory
//!   against the committed copies under `baselines/`: the series sets and
//!   per-series `output` counts must match exactly (the deterministic half
//!   of every figure), while runtimes only need to stay within a generous
//!   50× band (runners differ wildly; a swapped field or a broken series
//!   does not). Run it in CI right after the smoke figures.

use tpdb_bench::{
    header, measurements_to_json, run_nj_left_outer, run_nj_wn, run_nj_wuo, run_nj_wuo_parallel,
    run_nj_wuon, run_prepared_vs_reparse, run_query_core_ratio, run_setops_query_layer,
    run_snapshot_load, run_ta_left_outer, run_ta_negating, run_ta_wuo, run_throughput,
    run_union_materialized, run_union_parallel, run_union_streamed, workload_via_cache, Dataset,
    Measurement, Workload,
};

/// Input cardinalities per figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    /// Reduced sizes for the CI smoke run.
    Smoke,
    /// Laptop-friendly default.
    Default,
    /// The paper's cardinalities.
    Full,
}

struct Config {
    figures: Vec<String>,
    scale: Scale,
    json: bool,
    check_nj_wuo: bool,
    check_union_streaming: bool,
    check_query_overhead: bool,
    check_load_speedup: bool,
    check_throughput: bool,
    check_scaling: bool,
    /// The `check-baselines` subcommand: compare fresh smoke JSONs against
    /// the committed `baselines/` copies instead of running figures.
    check_baselines: bool,
    /// Worker counts of the `scaling` figure.
    threads: Vec<usize>,
}

fn usage_and_exit() -> ! {
    eprintln!(
        "usage: experiments [fig5] [fig6] [fig7] [ablation] [scaling] [prepared] [setops] \
         [ratio] [snapshot] [throughput] [--full | --smoke] [--json] [--check-nj-wuo] \
         [--check-union-streaming] [--check-query-overhead] [--check-load-speedup] \
         [--check-throughput] [--check-scaling] [--threads 1,2,4]\n\
         \x20      experiments check-baselines"
    );
    std::process::exit(2);
}

fn parse_threads(list: &str) -> Vec<usize> {
    let threads: Vec<usize> = list
        .split(',')
        .map(|t| match t.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--threads expects a comma-separated list of positive integers");
                usage_and_exit();
            }
        })
        .collect();
    if threads.is_empty() {
        usage_and_exit();
    }
    threads
}

fn parse_args() -> Config {
    let mut figures = Vec::new();
    let mut scale = Scale::Default;
    let mut json = false;
    let mut check_nj_wuo = false;
    let mut check_union_streaming = false;
    let mut check_query_overhead = false;
    let mut check_load_speedup = false;
    let mut check_throughput = false;
    let mut check_scaling = false;
    let mut check_baselines = false;
    let mut threads: Option<Vec<usize>> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            "--smoke" => scale = Scale::Smoke,
            "--json" => json = true,
            "--check-nj-wuo" => check_nj_wuo = true,
            "--check-union-streaming" => check_union_streaming = true,
            "--check-query-overhead" => check_query_overhead = true,
            "--check-load-speedup" => check_load_speedup = true,
            "--check-throughput" => check_throughput = true,
            "--check-scaling" => check_scaling = true,
            "check-baselines" => check_baselines = true,
            "--threads" => match args.next() {
                Some(list) => threads = Some(parse_threads(&list)),
                None => {
                    eprintln!("--threads requires an argument (e.g. --threads 1,2,4)");
                    usage_and_exit();
                }
            },
            "fig5" | "fig6" | "fig7" | "ablation" | "scaling" | "prepared" | "setops" | "ratio"
            | "snapshot" | "throughput" => figures.push(arg),
            other => {
                eprintln!("unknown argument: {other}");
                usage_and_exit();
            }
        }
    }
    // --threads (and --check-scaling) imply the scaling figure.
    if (threads.is_some() || check_scaling) && !figures.iter().any(|f| f == "scaling") {
        figures.push("scaling".into());
    }
    if check_baselines {
        if !figures.is_empty() {
            eprintln!("check-baselines is a standalone subcommand; do not combine it with figures");
            std::process::exit(2);
        }
        return Config {
            figures,
            scale,
            json,
            check_nj_wuo,
            check_union_streaming,
            check_query_overhead,
            check_load_speedup,
            check_throughput,
            check_scaling,
            check_baselines,
            threads: threads.unwrap_or_default(),
        };
    }
    if figures.is_empty() {
        figures = vec![
            "fig5".into(),
            "fig6".into(),
            "fig7".into(),
            "ablation".into(),
            "prepared".into(),
            "setops".into(),
            "ratio".into(),
            "snapshot".into(),
            "throughput".into(),
        ];
    }
    // The regression guards only evaluate their own figure's rows; passing
    // a guard without running the figure would silently skip the check.
    if check_nj_wuo && !figures.iter().any(|f| f == "fig5") {
        eprintln!("--check-nj-wuo requires fig5 to be among the figures run");
        std::process::exit(2);
    }
    if check_union_streaming && !figures.iter().any(|f| f == "setops") {
        eprintln!("--check-union-streaming requires setops to be among the figures run");
        std::process::exit(2);
    }
    if check_query_overhead && !figures.iter().any(|f| f == "ratio") {
        eprintln!("--check-query-overhead requires ratio to be among the figures run");
        std::process::exit(2);
    }
    if check_load_speedup && !figures.iter().any(|f| f == "snapshot") {
        eprintln!("--check-load-speedup requires snapshot to be among the figures run");
        std::process::exit(2);
    }
    if check_throughput && !figures.iter().any(|f| f == "throughput") {
        eprintln!("--check-throughput requires throughput to be among the figures run");
        std::process::exit(2);
    }
    let threads = threads.unwrap_or_else(|| vec![1, 2, 4, 8]);
    // NJ-P1 is always measured as the baseline; the guard additionally
    // needs the P=4 point.
    if check_scaling && !threads.contains(&4) {
        eprintln!("--check-scaling requires --threads to include 4 (the asserted worker count)");
        std::process::exit(2);
    }
    Config {
        figures,
        scale,
        json,
        check_nj_wuo,
        check_union_streaming,
        check_query_overhead,
        check_load_speedup,
        check_throughput,
        check_scaling,
        check_baselines,
        threads,
    }
}

/// Workload lookup for the figures: snapshot-cache backed (the first run
/// at a scale pays datagen and saves a binary snapshot under the temp
/// directory; every later figure or run loads it), fixed seed 42.
fn workload(dataset: Dataset, tuples: usize) -> Workload {
    workload_via_cache(dataset, tuples, 42)
}

fn print_series(title: &str, rows: &[Measurement]) {
    println!("\n== {title} ==");
    println!("{}", header());
    for row in rows {
        println!("{}", row.row());
    }
}

fn fig5(scale: Scale) -> Vec<Measurement> {
    let sizes: &[usize] = match scale {
        Scale::Full => &[50_000, 100_000, 150_000, 200_000],
        Scale::Default => &[5_000, 10_000, 20_000, 40_000],
        Scale::Smoke => &[2_000, 5_000],
    };
    let mut all = Vec::new();
    for dataset in [Dataset::WebkitLike, Dataset::MeteoLike] {
        let mut rows = Vec::new();
        for &n in sizes {
            let w = workload(dataset, n);
            rows.push(run_nj_wuo(&w));
            rows.push(run_ta_wuo(&w));
        }
        print_series(
            &format!(
                "Fig. 5 ({}) — WUO: overlapping + unmatched windows",
                dataset.label()
            ),
            &rows,
        );
        all.extend(rows);
    }
    all
}

fn fig6(scale: Scale) -> Vec<Measurement> {
    let sizes: &[usize] = match scale {
        Scale::Full => &[40_000, 80_000, 120_000, 160_000, 200_000],
        Scale::Default => &[5_000, 10_000, 20_000, 40_000],
        Scale::Smoke => &[2_000, 5_000],
    };
    let mut all = Vec::new();
    for dataset in [Dataset::WebkitLike, Dataset::MeteoLike] {
        let mut rows = Vec::new();
        for &n in sizes {
            let w = workload(dataset, n);
            rows.push(run_nj_wn(&w));
            rows.push(run_nj_wuon(&w));
            rows.push(run_ta_negating(&w));
        }
        print_series(
            &format!("Fig. 6 ({}) — negating windows", dataset.label()),
            &rows,
        );
        all.extend(rows);
    }
    all
}

fn fig7(scale: Scale) -> Vec<Measurement> {
    // TA's end-to-end plan is nested-loop; keep the default sweep small.
    let sizes: &[usize] = match scale {
        Scale::Full => &[40_000, 80_000, 120_000, 160_000, 200_000],
        Scale::Default => &[1_000, 2_000, 4_000, 8_000],
        Scale::Smoke => &[500, 1_000],
    };
    let mut all = Vec::new();
    for dataset in [Dataset::WebkitLike, Dataset::MeteoLike] {
        let mut rows = Vec::new();
        for &n in sizes {
            let w = workload(dataset, n);
            rows.push(run_nj_left_outer(&w));
            rows.push(run_ta_left_outer(&w));
        }
        print_series(
            &format!("Fig. 7 ({}) — TP left outer join", dataset.label()),
            &rows,
        );
        all.extend(rows);
    }
    all
}

/// The thread-scaling sweep: the Fig. 5 NJ measurement (meteo WUO — the
/// workload of the `--check-nj-wuo` guard) under morsel work-stealing
/// parallel execution, one series point per worker count. `NJ-P1` is the
/// serial baseline; the printed speedup column is `P1 time / Pn time`. A
/// trailing `machine-cores` series records the hardware parallelism
/// (`output`) so a recorded curve can be judged against the machine that
/// produced it — on a single-core host the curve is flat by construction.
fn scaling(scale: Scale, threads: &[usize]) -> Vec<Measurement> {
    let size: usize = match scale {
        Scale::Full => 200_000,
        Scale::Default => 40_000,
        Scale::Smoke => 5_000,
    };
    let w = workload(Dataset::MeteoLike, size);
    let mut rows: Vec<Measurement> = Vec::new();
    // Always measure the serial baseline so speedups are computable even
    // when the requested list omits 1.
    let baseline = run_nj_wuo_parallel(&w, 1);
    let base_ms = baseline.millis;
    rows.push(baseline);
    for &p in threads.iter().filter(|&&p| p != 1) {
        rows.push(run_nj_wuo_parallel(&w, p));
    }
    println!(
        "\n== Scaling — morsel work-stealing parallel NJ (meteo WUO, {size} tuples, \
         {} hardware threads) ==",
        tpdb_core::default_parallelism()
    );
    println!("{}   {:>8}", header(), "speedup");
    for row in &rows {
        println!("{}   {:>7.2}x", row.row(), base_ms / row.millis);
    }
    rows.push(Measurement {
        series: "machine-cores".to_owned(),
        dataset: "meteo".to_owned(),
        tuples: size,
        millis: 0.0,
        output: tpdb_core::default_parallelism(),
    });
    rows
}

/// The scaling regression guard: the P=4 work-stealing run must match the
/// host's expectation. On a ≥ 4-core machine the morsel scheduler must
/// actually scale — `NJ-P4` at least 2× faster than the serial `NJ-P1`
/// (ROADMAP targets ≥ 3×; the guard leaves headroom for shared runners).
/// On a smaller host every worker shares the core and the curve is flat by
/// construction, so the assertion degrades to an overhead bound: stealing
/// may cost at most 15% over serial.
fn check_scaling(rows: &[Measurement]) {
    let cores = rows
        .iter()
        .find(|m| m.series == "machine-cores")
        .map_or(1, |m| m.output);
    let tuples = rows.iter().map(|m| m.tuples).max().unwrap_or(0);
    let ms =
        |rows: &[Measurement], name: &str| rows.iter().find(|m| m.series == name).map(|m| m.millis);
    let (Some(mut t1), Some(mut t4)) = (ms(rows, "NJ-P1"), ms(rows, "NJ-P4")) else {
        eprintln!("--check-scaling: NJ-P1/NJ-P4 series missing");
        std::process::exit(1);
    };
    let holds = |t1: f64, t4: f64| {
        if cores >= 4 {
            t1 >= 2.0 * t4
        } else {
            t4 <= 1.15 * t1
        }
    };
    // Wall-clock comparisons on shared CI runners are noisy; before
    // declaring a regression, re-measure the pair up to twice, keeping the
    // minimum (least-noise) sample of each series.
    for attempt in 1..=2 {
        if holds(t1, t4) {
            break;
        }
        eprintln!(
            "scaling below expectation (P1 {t1:.2} ms, P4 {t4:.2} ms, {cores} cores); \
             re-measuring (attempt {attempt}/2, noisy runner?)"
        );
        let w = workload(Dataset::MeteoLike, tuples);
        t1 = t1.min(run_nj_wuo_parallel(&w, 1).millis);
        t4 = t4.min(run_nj_wuo_parallel(&w, 4).millis);
    }
    println!(
        "\nscaling guard (meteo WUO, {tuples} tuples, {cores} cores): P1 {t1:.2} ms, \
         P4 {t4:.2} ms ({:.2}x) — asserting {}",
        t1 / t4,
        if cores >= 4 {
            "P4 >= 2x P1 (multi-core scaling)"
        } else {
            "P4 <= 1.15x P1 (single-core stealing overhead bound)"
        }
    );
    if !holds(t1, t4) {
        if cores >= 4 {
            eprintln!(
                "REGRESSION: the P=4 work-stealing run ({t4:.2} ms) is less than 2x faster \
                 than serial ({t1:.2} ms) on a {cores}-core host"
            );
        } else {
            eprintln!(
                "REGRESSION: the P=4 work-stealing run ({t4:.2} ms) costs more than 15% over \
                 serial ({t1:.2} ms) on a {cores}-core host"
            );
        }
        std::process::exit(1);
    }
}

/// The session front-end sweep: prepared-vs-reparse latency on the meteo
/// WUO workload (the TP anti join whose answer is the unmatched/negating
/// window mass of Fig. 5) plus a cheap parameterized scan where the
/// parse + validate share dominates. `runtime_ms` is the mean per
/// execution over the iteration count.
fn prepared(scale: Scale) -> Vec<Measurement> {
    let (sizes, iterations): (&[usize], usize) = match scale {
        Scale::Full => (&[40_000], 5),
        Scale::Default => (&[5_000, 20_000], 7),
        Scale::Smoke => (&[2_000], 3),
    };
    let mut all = Vec::new();
    for &n in sizes {
        let w = workload(Dataset::MeteoLike, n);
        let rows = run_prepared_vs_reparse(&w, iterations);
        print_series(
            &format!("Prepared vs. reparse (meteo, {n} tuples, mean of {iterations} executions)"),
            &rows,
        );
        all.extend(rows);
    }
    all
}

/// The set-operation figure: union/intersect/except on the meteo workload.
/// `union-stream` is the lazy [`tpdb_core::TpSetOpStream`] path (what
/// [`tpdb_core::tp_union`] and the query layer run); `union-mat` is the
/// pre-streaming materializing reference; `union-steal-P<n>` is the
/// morsel work-stealing union at degree n (P1 takes the serial path, so
/// the P1/P4 pair is the stealing overhead/speedup); the `*-query` series
/// measure the three operations end-to-end through the session front-end.
fn setops(scale: Scale) -> Vec<Measurement> {
    let sizes: &[usize] = match scale {
        Scale::Full => &[40_000],
        Scale::Default => &[5_000, 20_000],
        Scale::Smoke => &[2_000],
    };
    let mut all = Vec::new();
    for &n in sizes {
        let w = workload(Dataset::MeteoLike, n);
        // Untimed warmup: the first run over a fresh workload pays the
        // cold-cache cost, which would otherwise bias whichever series is
        // measured first.
        let _ = run_union_materialized(&w);
        let mut rows = vec![run_union_streamed(&w), run_union_materialized(&w)];
        for threads in [1, 2, 4] {
            rows.push(run_union_parallel(&w, threads));
        }
        rows.extend(run_setops_query_layer(&w));
        print_series(
            &format!("Set operations (meteo, {n} tuples) — streamed vs. materializing union"),
            &rows,
        );
        all.extend(rows);
    }
    all
}

/// The query-overhead figure: the same TP left outer join measured as the
/// core [`tpdb_core::tp_left_outer_join`] function and end-to-end through a
/// prepared, serial session statement. Both series run the identical join
/// kind and pipeline, so their ratio is pure query-layer overhead — unlike
/// the `prepared` figure, whose join series is a TP anti join and therefore
/// not comparable to Fig. 7. Meteo only, the workload of the other
/// regression guards.
fn ratio(scale: Scale) -> Vec<Measurement> {
    let sizes: &[usize] = match scale {
        Scale::Full => &[40_000],
        Scale::Default => &[5_000, 20_000],
        Scale::Smoke => &[2_000],
    };
    let mut all = Vec::new();
    for &n in sizes {
        let w = workload(Dataset::MeteoLike, n);
        let rows = run_query_core_ratio(&w);
        print_series(
            &format!("Query-vs-core ratio (meteo, {n} tuples) — TP left outer join"),
            &rows,
        );
        all.extend(rows);
    }
    all
}

/// The query-overhead regression guard: the session-executed TP left outer
/// join must stay within `1.2×` of the core function on the meteo workload
/// at the largest measured cardinality. Both series run the same serial
/// join, so anything beyond the margin is envelope cost the query layer
/// added back (per-execution engine cloning, per-tuple fact copies, ...).
fn check_query_overhead(rows: &[Measurement]) {
    let meteo: Vec<&Measurement> = rows.iter().filter(|m| m.dataset == "meteo").collect();
    let largest = meteo.iter().map(|m| m.tuples).max().unwrap_or(0);
    let series = |name: &str| {
        meteo
            .iter()
            .find(|m| m.series == name && m.tuples == largest)
            .copied()
    };
    let (Some(core), Some(session)) = (series("core"), series("session")) else {
        eprintln!("--check-query-overhead: ratio core/session series missing");
        std::process::exit(1);
    };
    const MARGIN: f64 = 1.20;
    // Wall-clock comparisons on shared CI runners are noisy; before
    // declaring a regression, re-measure the pair up to twice on a fresh
    // workload.
    let (mut core_ms, mut session_ms) = (core.millis, session.millis);
    for attempt in 1..=2 {
        if session_ms <= core_ms * MARGIN {
            break;
        }
        eprintln!(
            "session join ({session_ms:.2} ms) more than 1.2x over core ({core_ms:.2} ms); \
             re-measuring (attempt {attempt}/2, noisy runner?)"
        );
        let w = workload(Dataset::MeteoLike, largest);
        let rows = run_query_core_ratio(&w);
        core_ms = rows[0].millis;
        session_ms = rows[1].millis;
    }
    println!(
        "\nquery overhead guard (meteo, {largest} tuples): core {core_ms:.2} ms, \
         session {session_ms:.2} ms ({:.2}x)",
        session_ms / core_ms
    );
    if session_ms > core_ms * MARGIN {
        eprintln!(
            "REGRESSION: the session-executed left outer join ({session_ms:.2} ms) is more \
             than 1.2x slower than the core function ({core_ms:.2} ms) on the meteo workload \
             at {largest} tuples"
        );
        std::process::exit(1);
    }
}

/// The set-operation regression guard: the streamed union must not be
/// slower than the old materializing path on the meteo workload at the
/// largest measured cardinality, beyond a 10% wall-clock noise margin (the
/// two paths do identical window work — the streamed one merely avoids
/// materializing the window lists, so any real slowdown is a pipeline
/// regression).
fn check_union_streaming(rows: &[Measurement]) {
    let meteo: Vec<&Measurement> = rows.iter().filter(|m| m.dataset == "meteo").collect();
    let largest = meteo.iter().map(|m| m.tuples).max().unwrap_or(0);
    let series = |name: &str| {
        meteo
            .iter()
            .find(|m| m.series == name && m.tuples == largest)
            .copied()
    };
    let (Some(streamed), Some(materialized)) = (series("union-stream"), series("union-mat")) else {
        eprintln!("--check-union-streaming: setops union series missing");
        std::process::exit(1);
    };
    const MARGIN: f64 = 1.10;
    // Wall-clock comparisons on shared CI runners are noisy; before
    // declaring a regression, re-measure the pair up to twice on a fresh
    // workload.
    let (mut stream_ms, mut mat_ms) = (streamed.millis, materialized.millis);
    for attempt in 1..=2 {
        if stream_ms <= mat_ms * MARGIN {
            break;
        }
        eprintln!(
            "streamed union ({stream_ms:.2} ms) slower than materializing ({mat_ms:.2} ms); \
             re-measuring (attempt {attempt}/2, noisy runner?)"
        );
        let w = workload(Dataset::MeteoLike, largest);
        // Same untimed warmup as the figure itself: without it the first
        // measured series would absorb the fresh workload's cold-cache
        // cost and the retry would be biased against the streamed path.
        let _ = run_union_materialized(&w);
        stream_ms = run_union_streamed(&w).millis;
        mat_ms = run_union_materialized(&w).millis;
    }
    println!(
        "\nunion streaming guard (meteo, {largest} tuples): streamed {stream_ms:.2} ms, \
         materializing {mat_ms:.2} ms"
    );
    if stream_ms > mat_ms * MARGIN {
        eprintln!(
            "REGRESSION: the streamed union ({stream_ms:.2} ms) is more than 10% slower than \
             the materializing reference ({mat_ms:.2} ms) on the meteo workload at {largest} \
             tuples"
        );
        std::process::exit(1);
    }
}

/// The `snapshot` figure: how fast the meteo workload comes into a catalog
/// — datagen regeneration vs. binary snapshot save/load vs. CSV import —
/// recorded as `BENCH_load.json`. The snapshot-load advantage over text
/// ingest is what the workload cache (and the `--check-load-speedup`
/// guard) banks on; the datagen series is recorded alongside as the
/// in-memory construction floor both loaders sit on top of.
fn snapshot(scale: Scale) -> Vec<Measurement> {
    let sizes: &[usize] = match scale {
        Scale::Full => &[5_000, 40_000, 200_000, 1_000_000],
        Scale::Default => &[5_000, 40_000, 200_000],
        Scale::Smoke => &[5_000],
    };
    let dir = std::env::temp_dir();
    let mut all = Vec::new();
    for &n in sizes {
        let rows = run_snapshot_load(n, 42, &dir);
        print_series(
            &format!("Snapshot (meteo, {n} tuples) — datagen vs. snapshot load vs. CSV import"),
            &rows,
        );
        all.extend(rows);
    }
    all
}

/// The snapshot regression guard: at the largest measured cardinality, the
/// *ingest overhead* of loading the binary snapshot — its cost net of the
/// shared in-memory tuple construction that every loader pays, estimated
/// by the `datagen` series — must be at least 10× smaller than the ingest
/// overhead of importing the identical data as CSV text. The overhead is
/// what the format controls (file read, checksum, parse); the construction
/// floor is identical on both sides, so comparing gross wall-clock would
/// only measure how large that shared floor is, not the format.
fn check_load_speedup(rows: &[Measurement]) {
    let largest = rows.iter().map(|m| m.tuples).max().unwrap_or(0);
    let series = |rows: &[Measurement], name: &str| {
        rows.iter()
            .find(|m| m.series == name && m.tuples == largest)
            .map(|m| m.millis)
    };
    let (Some(mut datagen_ms), Some(mut import_ms), Some(mut load_ms)) = (
        series(rows, "datagen"),
        series(rows, "csv-import"),
        series(rows, "snap-load"),
    ) else {
        eprintln!("--check-load-speedup: snapshot datagen/csv-import/snap-load series missing");
        std::process::exit(1);
    };
    const SPEEDUP: f64 = 10.0;
    // Overheads above the construction floor; a load at or below the floor
    // has no measurable overhead at all and trivially passes.
    let overheads = |datagen: f64, import: f64, load: f64| {
        ((import - datagen).max(0.0), (load - datagen).max(0.001))
    };
    // Wall-clock comparisons on shared CI runners are noisy; before
    // declaring a regression, re-measure up to twice, keeping the minimum
    // (least-noise) sample of every series.
    for attempt in 1..=2 {
        let (import_over, load_over) = overheads(datagen_ms, import_ms, load_ms);
        if load_over * SPEEDUP <= import_over {
            break;
        }
        eprintln!(
            "snapshot load overhead ({load_over:.2} ms) within 10x of CSV import overhead \
             ({import_over:.2} ms); re-measuring (attempt {attempt}/2, noisy runner?)"
        );
        let retry = run_snapshot_load(largest, 42, &std::env::temp_dir());
        datagen_ms = series(&retry, "datagen")
            .unwrap_or(datagen_ms)
            .min(datagen_ms);
        import_ms = series(&retry, "csv-import")
            .unwrap_or(import_ms)
            .min(import_ms);
        load_ms = series(&retry, "snap-load").unwrap_or(load_ms).min(load_ms);
    }
    let (import_over, load_over) = overheads(datagen_ms, import_ms, load_ms);
    println!(
        "\nload speedup guard (meteo, {largest} tuples): construction floor {datagen_ms:.2} ms, \
         csv import +{import_over:.2} ms, snapshot load +{load_over:.2} ms ({:.1}x)",
        import_over / load_over
    );
    if load_over * SPEEDUP > import_over {
        eprintln!(
            "REGRESSION: the meteo snapshot's load overhead ({load_over:.2} ms above the \
             {datagen_ms:.2} ms construction floor) is less than 10x smaller than CSV import's \
             ({import_over:.2} ms) at {largest} tuples"
        );
        std::process::exit(1);
    }
}

/// The `throughput` figure: the meteo TP left outer join driven through the
/// `tpdb-server` front-end at 1/2/4/8 concurrent clients, against the
/// serial in-process session baseline, recorded as
/// `BENCH_throughput.json`. Every concurrent response is asserted
/// byte-identical to the serial rendering inside [`run_throughput`] itself,
/// so the figure doubles as the concurrency correctness check; the
/// `machine-cores` series records the hardware parallelism the qps curve
/// must be judged against.
fn throughput(scale: Scale) -> Vec<Measurement> {
    let (tuples, rounds, concurrency): (usize, usize, &[usize]) = match scale {
        Scale::Full => (5_000, 20, &[1, 2, 4, 8]),
        Scale::Default => (2_000, 12, &[1, 2, 4, 8]),
        Scale::Smoke => (500, 5, &[1, 2, 4]),
    };
    let w = workload(Dataset::MeteoLike, tuples);
    let rows = run_throughput(&w, concurrency, rounds);
    let cores = rows
        .iter()
        .find(|m| m.series == "machine-cores")
        .map_or(1, |m| m.output);
    print_series(
        &format!(
            "Throughput — tpdb-server front-end (meteo, {tuples} tuples, {rounds} queries \
             per client, {cores} hardware threads)"
        ),
        &rows,
    );
    println!("{:<8} {:>10}", "series", "qps");
    for row in rows
        .iter()
        .filter(|m| m.series == "serial" || (m.series.starts_with('c') && !m.series.contains('-')))
    {
        println!(
            "{:<8} {:>10.1}",
            row.series,
            row.output as f64 * 1000.0 / row.millis.max(0.001)
        );
    }
    rows
}

/// The throughput regression guard: qps at 4 concurrent clients must match
/// the host's expectation. On a ≥ 4-core machine the server must actually
/// scale — at least 2× the 1-client qps. On a smaller host the curve is
/// flat by construction (every statement shares the cores), so the
/// assertion degrades to what such a host can show about the *server*:
/// four clients keep at least 0.8× the one-client rate. (The serial
/// in-process baseline is printed but not asserted against: it moves with
/// the engine's speed, not the front-end's.)
fn check_throughput(rows: &[Measurement], scale: Scale) {
    let qps = |rows: &[Measurement], name: &str| {
        rows.iter()
            .find(|m| m.series == name)
            .map(|m| m.output as f64 * 1000.0 / m.millis.max(0.001))
    };
    let cores = rows
        .iter()
        .find(|m| m.series == "machine-cores")
        .map_or(1, |m| m.output);
    let tuples = rows.iter().map(|m| m.tuples).max().unwrap_or(0);
    let (Some(mut serial), Some(mut c1), Some(mut c4)) =
        (qps(rows, "serial"), qps(rows, "c1"), qps(rows, "c4"))
    else {
        eprintln!("--check-throughput: serial/c1/c4 series missing");
        std::process::exit(1);
    };
    let factor = if cores >= 4 { 2.0 } else { 0.8 };
    let holds = |c1: f64, c4: f64| c4 >= factor * c1;
    // Wall-clock comparisons on shared CI runners are noisy; before
    // declaring a regression, re-measure up to twice on a fresh workload,
    // keeping the best (least-noise) qps of every series.
    for attempt in 1..=2 {
        if holds(c1, c4) {
            break;
        }
        eprintln!(
            "throughput below expectation (serial {serial:.1} qps, c1 {c1:.1}, c4 {c4:.1}, \
             {cores} cores); re-measuring (attempt {attempt}/2, noisy runner?)"
        );
        let w = workload(Dataset::MeteoLike, tuples);
        let rounds = if scale == Scale::Smoke { 5 } else { 12 };
        let retry = run_throughput(&w, &[1, 4], rounds);
        serial = qps(&retry, "serial").unwrap_or(serial).max(serial);
        c1 = qps(&retry, "c1").unwrap_or(c1).max(c1);
        c4 = qps(&retry, "c4").unwrap_or(c4).max(c4);
    }
    println!(
        "\nthroughput guard (meteo, {tuples} tuples, {cores} cores): serial {serial:.1} qps, \
         c1 {c1:.1} qps, c4 {c4:.1} qps — asserting {}",
        if cores >= 4 {
            "c4 >= 2x c1 (multi-core scaling)"
        } else {
            "c4 >= 0.8x c1 (small-host sharing bound)"
        }
    );
    if !holds(c1, c4) {
        eprintln!(
            "REGRESSION: 4 concurrent clients reach {c4:.1} qps, less than {factor}x the \
             1-client {c1:.1} qps on a {cores}-core host"
        );
        std::process::exit(1);
    }
}

/// Ablations not present in the paper: (A1) the overlap-join plan inside NJ
/// — sweep vs. hash vs. nested loop — and (A2) the effect of the
/// independence-decomposition shortcuts in the probability engine.
fn ablation() {
    use std::time::Instant;
    use tpdb_core::{overlapping_windows_with_plan, OverlapJoinPlan};

    println!("\n== A1 — overlap-join plan inside NJ (webkit-like, 20K tuples) ==");
    let w = workload(Dataset::WebkitLike, 20_000);
    let bound = w.theta.bind(w.r.schema(), w.s.schema()).expect("θ binds");
    let mut timings = Vec::new();
    for plan in [
        OverlapJoinPlan::Sweep,
        OverlapJoinPlan::Hash,
        OverlapJoinPlan::NestedLoop,
    ] {
        let start = Instant::now();
        // A forced plan either runs or errors — it can no longer silently
        // downgrade, so each reported series is the plan it claims to be.
        let windows = overlapping_windows_with_plan(&w.r, &w.s, &bound, plan)
            .unwrap_or_else(|e| panic!("plan {plan} did not run: {e}"));
        let millis = start.elapsed().as_secs_f64() * 1000.0;
        println!(
            "  overlap join [{:<11}]  {:>10.2} ms   {} windows",
            plan.label(),
            millis,
            windows.len()
        );
        timings.push((plan, millis));
    }
    let ordered = timings.windows(2).all(|pair| pair[0].1 <= pair[1].1);
    println!(
        "  plan ordering sweep <= hash <= nested-loop: {}",
        if ordered {
            "holds"
        } else {
            "VIOLATED (timing noise? rerun on an idle machine)"
        }
    );

    println!("\n== A2 — probability computation: decomposition vs. forced Shannon ==");
    let w = workload(Dataset::MeteoLike, 5_000);
    for force in [false, true] {
        let mut engine = tpdb_lineage::ProbabilityEngine::new();
        w.r.register_probabilities(&mut engine);
        w.s.register_probabilities(&mut engine);
        engine.set_force_shannon(force);
        let start = Instant::now();
        let result = tpdb_core::tp_join_with_engine(
            &w.r,
            &w.s,
            &w.theta,
            tpdb_core::TpJoinKind::Anti,
            &mut engine,
        )
        .expect("θ binds");
        println!(
            "  anti join [{}]  {:>10.2} ms   {} output tuples, {} Shannon expansions",
            if force {
                "forced Shannon "
            } else {
                "decomposition  "
            },
            start.elapsed().as_secs_f64() * 1000.0,
            result.len(),
            engine.expansions()
        );
    }
}

/// Writes a figure's measurements to `BENCH_<figure>.json` (default scale)
/// or `BENCH_<figure>_<scale>.json` — the reduced/full sweeps must not
/// clobber the recorded default-scale series.
fn write_json(figure: &str, scale: Scale, rows: &[Measurement]) {
    let path = match scale {
        Scale::Default => format!("BENCH_{figure}.json"),
        Scale::Smoke => format!("BENCH_{figure}_smoke.json"),
        Scale::Full => format!("BENCH_{figure}_full.json"),
    };
    match std::fs::write(&path, measurements_to_json(rows)) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// The Fig. 5 regression guard: NJ must not be slower than TA on the meteo
/// WUO series at the largest measured cardinality (this very repository once
/// shipped NJ 3.5× *slower* — see CHANGES.md).
fn check_nj_wuo(rows: &[Measurement]) {
    let meteo: Vec<&Measurement> = rows.iter().filter(|m| m.dataset == "meteo").collect();
    let largest = meteo.iter().map(|m| m.tuples).max().unwrap_or(0);
    let series = |name: &str| {
        meteo
            .iter()
            .find(|m| m.series == name && m.tuples == largest)
            .copied()
    };
    let (Some(nj), Some(ta)) = (series("NJ"), series("TA")) else {
        eprintln!("--check-nj-wuo: fig5 meteo NJ/TA series missing");
        std::process::exit(1);
    };
    // Wall-clock comparisons on shared CI runners are noisy; before
    // declaring a regression, re-measure the pair up to twice on a fresh
    // workload. A genuine regression (the original bug was 3.5×) fails
    // every attempt.
    let (mut nj_ms, mut ta_ms) = (nj.millis, ta.millis);
    for attempt in 1..=2 {
        if nj_ms <= ta_ms {
            break;
        }
        eprintln!(
            "NJ ({nj_ms:.2} ms) slower than TA ({ta_ms:.2} ms); \
             re-measuring (attempt {attempt}/2, noisy runner?)"
        );
        let w = workload(Dataset::MeteoLike, largest);
        nj_ms = run_nj_wuo(&w).millis;
        ta_ms = run_ta_wuo(&w).millis;
    }
    println!("\nNJ-vs-TA guard (meteo WUO, {largest} tuples): NJ {nj_ms:.2} ms, TA {ta_ms:.2} ms");
    if nj_ms > ta_ms {
        eprintln!(
            "REGRESSION: NJ ({nj_ms:.2} ms) is slower than TA ({ta_ms:.2} ms) on the \
             meteo WUO workload at {largest} tuples"
        );
        std::process::exit(1);
    }
}

/// One parsed row of a `BENCH_*.json` file (the format
/// [`tpdb_bench::measurements_to_json`] writes: one flat object per line).
struct BenchRow {
    dataset: String,
    series: String,
    tuples: usize,
    millis: f64,
    output: usize,
}

fn json_str_field(line: &str, name: &str) -> Option<String> {
    let key = format!("\"{name}\":\"");
    let start = line.find(&key)? + key.len();
    let len = line.get(start..)?.find('"')?;
    Some(line.get(start..start + len)?.to_owned())
}

fn json_num_field(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":");
    let start = line.find(&key)? + key.len();
    let rest = line.get(start..)?;
    let len = rest.find([',', '}']).unwrap_or(rest.len());
    rest.get(..len)?.trim().parse().ok()
}

/// Parses the flat one-object-per-line JSON our own writer produces.
/// Anything unparseable is a hard error — a baseline file is either in our
/// format or the comparison is meaningless.
fn parse_bench_rows(text: &str, path: &str) -> Vec<BenchRow> {
    let mut rows = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with('{') {
            continue;
        }
        let parsed = (|| {
            Some(BenchRow {
                dataset: json_str_field(line, "dataset")?,
                series: json_str_field(line, "series")?,
                tuples: json_num_field(line, "tuples")? as usize,
                millis: json_num_field(line, "runtime_ms")?,
                output: json_num_field(line, "output")? as usize,
            })
        })();
        match parsed {
            Some(row) => rows.push(row),
            None => {
                eprintln!("{path}:{}: unparseable measurement row", lineno + 1);
                std::process::exit(2);
            }
        }
    }
    rows
}

/// The smoke-figure baseline check: every `BENCH_<figure>_smoke.json` just
/// produced in the current directory is compared against the committed
/// copy under `baselines/`. Series sets and per-series `output` counts
/// must match exactly — they are deterministic functions of the workload
/// (fixed seed) and a drift means an engine change altered results or a
/// figure lost a series. Runtimes only have to stay within a 50× band of
/// the baseline (for baselines ≥ 1 ms): runners differ wildly in speed,
/// but a runtime recorded into the wrong field or a series suddenly
/// measuring nothing does not survive even that band. `machine-cores`
/// rows are exempt from the output comparison (they record the host).
fn check_baselines() {
    const FIGURES: [&str; 7] = [
        "fig5",
        "scaling",
        "prepared",
        "setops",
        "ratio",
        "load",
        "throughput",
    ];
    const RUNTIME_BAND: f64 = 50.0;
    let mut failures = 0usize;
    let mut compared = 0usize;
    for figure in FIGURES {
        let fresh_path = format!("BENCH_{figure}_smoke.json");
        let base_path = format!("baselines/BENCH_{figure}_smoke.json");
        let read = |path: &str| match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("check-baselines: cannot read {path}: {e}");
                std::process::exit(2);
            }
        };
        let fresh = parse_bench_rows(&read(&fresh_path), &fresh_path);
        let base = parse_bench_rows(&read(&base_path), &base_path);
        let key = |r: &BenchRow| (r.dataset.clone(), r.series.clone(), r.tuples);
        let fresh_keys: Vec<_> = fresh.iter().map(key).collect();
        let base_keys: Vec<_> = base.iter().map(key).collect();
        for k in &base_keys {
            if !fresh_keys.contains(k) {
                eprintln!(
                    "{figure}: series {}/{} @{} present in {base_path} but missing from \
                     {fresh_path}",
                    k.0, k.1, k.2
                );
                failures += 1;
            }
        }
        for k in &fresh_keys {
            if !base_keys.contains(k) {
                eprintln!(
                    "{figure}: series {}/{} @{} is new in {fresh_path} — regenerate the \
                     baseline under baselines/",
                    k.0, k.1, k.2
                );
                failures += 1;
            }
        }
        for b in &base {
            let Some(f) = fresh.iter().find(|f| key(f) == key(b)) else {
                continue;
            };
            compared += 1;
            if b.series != "machine-cores" && f.output != b.output {
                eprintln!(
                    "{figure}: series {}/{} @{}: output {} differs from baseline {}",
                    b.dataset, b.series, b.tuples, f.output, b.output
                );
                failures += 1;
            }
            if b.millis >= 1.0
                && (f.millis > b.millis * RUNTIME_BAND || f.millis * RUNTIME_BAND < b.millis)
            {
                eprintln!(
                    "{figure}: series {}/{} @{}: runtime {:.3} ms outside the {RUNTIME_BAND}x \
                     band of baseline {:.3} ms",
                    b.dataset, b.series, b.tuples, f.millis, b.millis
                );
                failures += 1;
            }
        }
    }
    println!(
        "check-baselines: {compared} series compared across {} figures, {failures} drift(s)",
        FIGURES.len()
    );
    if failures > 0 {
        eprintln!(
            "BASELINE DRIFT: {failures} mismatch(es) against baselines/ — if intentional, \
             regenerate the baselines (see docs/EXPERIMENTS.md)"
        );
        std::process::exit(1);
    }
}

fn main() {
    let config = parse_args();
    if config.check_baselines {
        check_baselines();
        return;
    }
    println!(
        "TPDB experiment driver (scale: {})",
        match config.scale {
            Scale::Full => "full (paper)",
            Scale::Default => "default (scaled down)",
            Scale::Smoke => "smoke (CI)",
        }
    );
    for figure in &config.figures {
        let rows = match figure.as_str() {
            "fig5" => fig5(config.scale),
            "fig6" => fig6(config.scale),
            "fig7" => fig7(config.scale),
            "scaling" => scaling(config.scale, &config.threads),
            "prepared" => prepared(config.scale),
            "setops" => setops(config.scale),
            "ratio" => ratio(config.scale),
            "snapshot" => snapshot(config.scale),
            "throughput" => throughput(config.scale),
            "ablation" => {
                ablation();
                continue;
            }
            _ => unreachable!("validated in parse_args"),
        };
        if config.json {
            // The snapshot figure records under the load-cost name the
            // perf-trajectory tooling tracks.
            let json_name = if figure == "snapshot" { "load" } else { figure };
            write_json(json_name, config.scale, &rows);
        }
        if config.check_nj_wuo && figure == "fig5" {
            check_nj_wuo(&rows);
        }
        if config.check_union_streaming && figure == "setops" {
            check_union_streaming(&rows);
        }
        if config.check_query_overhead && figure == "ratio" {
            check_query_overhead(&rows);
        }
        if config.check_load_speedup && figure == "snapshot" {
            check_load_speedup(&rows);
        }
        if config.check_throughput && figure == "throughput" {
            check_throughput(&rows, config.scale);
        }
        if config.check_scaling && figure == "scaling" {
            check_scaling(&rows);
        }
    }
}
