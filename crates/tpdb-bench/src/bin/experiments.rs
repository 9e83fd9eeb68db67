//! The experiment driver regenerating the three figures of the paper's
//! evaluation section (Section IV, Figs. 5–7) as result tables.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p tpdb-bench --bin experiments            # Figs. 5–7, default scale
//! cargo run --release -p tpdb-bench --bin experiments -- fig5    # only Fig. 5
//! cargo run --release -p tpdb-bench --bin experiments -- fig7 --full   # paper-scale cardinalities
//! cargo run --release -p tpdb-bench --bin experiments -- fig5 fig6 fig7 --smoke --json --check-nj-wuo
//! ```
//!
//! Default cardinalities are scaled down from the paper's 40K–200K so that
//! the whole sweep finishes in a few minutes on a laptop; `--full` switches
//! to the paper's sizes (expect the TA series of Fig. 7 to run for a long
//! time — the nested-loop degradation is the point of that figure), and
//! `--smoke` to the reduced CI scale.
//!
//! * `--json` writes each figure's measurements to `BENCH_<figure>.json` in
//!   the current directory (`_smoke` / `_full` suffixed off default scale).
//! * `--check-nj-wuo` exits non-zero when the NJ series of Fig. 5 is slower
//!   than the TA series on the meteo workload at the largest measured scale
//!   — the paper's claim, as a same-run ratio.
//!
//! Every other quantity of the engine is measured by `tpbench/` (see
//! `docs/EXPERIMENTS.md` for the figure → metric table).

use tpdb_bench::{
    header, measurements_to_json, run_nj_left_outer, run_nj_wn, run_nj_wuo, run_nj_wuon,
    run_ta_left_outer, run_ta_negating, run_ta_wuo, workload_via_cache, Dataset, Measurement,
    Workload,
};

const USAGE: &str =
    "usage: experiments [fig5] [fig6] [fig7] [--smoke | --full] [--json] [--check-nj-wuo]";

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

/// One figure of the evaluation: its series and its sweep per scale.
struct Figure {
    name: &'static str,
    title: &'static str,
    series: &'static [fn(&Workload) -> Measurement],
    smoke: &'static [usize],
    default: &'static [usize],
    full: &'static [usize],
}

const FIGURES: [Figure; 3] = [
    Figure {
        name: "fig5",
        title: "Fig. 5 — WUO: overlapping + unmatched windows",
        series: &[run_nj_wuo, run_ta_wuo],
        smoke: &[2_000, 5_000],
        default: &[5_000, 10_000, 20_000, 40_000],
        full: &[50_000, 100_000, 150_000, 200_000],
    },
    Figure {
        name: "fig6",
        title: "Fig. 6 — negating windows",
        series: &[run_nj_wn, run_nj_wuon, run_ta_negating],
        smoke: &[2_000, 5_000],
        default: &[5_000, 10_000, 20_000, 40_000],
        full: &[40_000, 80_000, 120_000, 160_000, 200_000],
    },
    // TA's end-to-end plan is nested-loop; the default sweep stays small.
    Figure {
        name: "fig7",
        title: "Fig. 7 — TP left outer join",
        series: &[run_nj_left_outer, run_ta_left_outer],
        smoke: &[500, 1_000],
        default: &[1_000, 2_000, 4_000, 8_000],
        full: &[40_000, 80_000, 120_000, 160_000, 200_000],
    },
];

struct Config {
    figures: Vec<&'static Figure>,
    scale: Scale,
    json: bool,
    check_nj_wuo: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Config, String> {
    let mut config = Config {
        figures: Vec::new(),
        scale: Scale::Default,
        json: false,
        check_nj_wuo: false,
    };
    for arg in args {
        match arg.as_str() {
            "--full" => config.scale = Scale::Full,
            "--smoke" => config.scale = Scale::Smoke,
            "--json" => config.json = true,
            "--check-nj-wuo" => config.check_nj_wuo = true,
            name => match FIGURES.iter().find(|f| f.name == name) {
                Some(figure) => config.figures.push(figure),
                None => return Err(format!("unknown argument: {name}")),
            },
        }
    }
    if config.figures.is_empty() {
        config.figures = FIGURES.iter().collect();
    }
    // The guard only evaluates Fig. 5's rows; passing it without running
    // the figure would silently skip the check.
    if config.check_nj_wuo && !config.figures.iter().any(|f| f.name == "fig5") {
        return Err("--check-nj-wuo requires fig5 to be among the figures run".to_owned());
    }
    Ok(config)
}

/// Workload lookup for the figures: snapshot-cache backed (the first run
/// at a scale pays datagen and saves a binary snapshot under the temp
/// directory; every later figure or run loads it), fixed seed 42.
fn workload(dataset: Dataset, tuples: usize) -> Workload {
    workload_via_cache(dataset, tuples, 42)
}

/// Runs one figure's sweep — every series at every size, webkit then meteo
/// — printing each dataset's table as it completes.
fn run_figure(figure: &Figure, scale: Scale) -> Vec<Measurement> {
    let sizes = match scale {
        Scale::Smoke => figure.smoke,
        Scale::Default => figure.default,
        Scale::Full => figure.full,
    };
    let mut all = Vec::new();
    for dataset in [Dataset::WebkitLike, Dataset::MeteoLike] {
        println!(
            "\n== {} ({}) ==\n{}",
            figure.title,
            dataset.label(),
            header()
        );
        for &n in sizes {
            let w = workload(dataset, n);
            for run in figure.series {
                let row = run(&w);
                println!("{}", row.row());
                all.push(row);
            }
        }
    }
    all
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

fn main() {
    let config = parse_args(std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!("{message}\n{USAGE}");
        std::process::exit(2);
    });
    println!(
        "TPDB experiment driver (scale: {})",
        match config.scale {
            Scale::Full => "full (paper)",
            Scale::Default => "default (scaled down)",
            Scale::Smoke => "smoke (CI)",
        }
    );
    for figure in config.figures {
        let rows = run_figure(figure, config.scale);
        if config.json {
            write_json(figure.name, config.scale, &rows);
        }
        if config.check_nj_wuo && figure.name == "fig5" {
            check_nj_wuo(&rows);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(dataset, tuples, output)`.
    type Point = (&'static str, usize, usize);

    /// The deterministic half of every figure at smoke scale: per figure
    /// the series run, and per (dataset, tuples) the window / output-tuple
    /// count every series of the figure must report (NJ = TA). Workloads
    /// are generated from the fixed seed 42.
    const SMOKE: [(&[&str], [Point; 4]); 3] = [
        (
            &["NJ", "TA"],
            [
                ("webkit", 2_000, 5_246),
                ("webkit", 5_000, 13_014),
                ("meteo", 2_000, 13_449),
                ("meteo", 5_000, 84_028),
            ],
        ),
        (
            &["NJ-WN", "NJ-WUON", "TA"],
            [
                ("webkit", 2_000, 8_621),
                ("webkit", 5_000, 21_384),
                ("meteo", 2_000, 26_188),
                ("meteo", 5_000, 142_693),
            ],
        ),
        (
            &["NJ", "TA"],
            [
                ("webkit", 500, 2_189),
                ("webkit", 1_000, 4_330),
                ("meteo", 500, 1_920),
                ("meteo", 1_000, 6_501),
            ],
        ),
    ];

    #[test]
    fn smoke_figures_report_the_recorded_series_and_output_counts() {
        for (figure, (series, points)) in FIGURES.iter().zip(SMOKE) {
            let expected: Vec<(&str, &str, usize, usize)> = points
                .iter()
                .flat_map(|&(dataset, tuples, output)| {
                    series.iter().map(move |&s| (dataset, s, tuples, output))
                })
                .collect();
            let rows = run_figure(figure, Scale::Smoke);
            let measured: Vec<(&str, &str, usize, usize)> = rows
                .iter()
                .map(|m| (m.dataset.as_str(), m.series.as_str(), m.tuples, m.output))
                .collect();
            assert_eq!(measured, expected, "{}", figure.name);
        }
    }

    #[test]
    fn only_the_three_figures_and_four_flags_parse() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|a| (*a).to_owned()));
        let all = parse(&[]).expect("no arguments runs every figure");
        assert_eq!(all.figures.len(), 3);
        assert!(all.scale == Scale::Default && !all.json && !all.check_nj_wuo);
        let one = parse(&["fig5", "--smoke", "--json", "--check-nj-wuo"]).expect("valid");
        assert_eq!(one.figures.len(), 1);
        assert!(one.scale == Scale::Smoke && one.json && one.check_nj_wuo);
        assert!(parse(&["fig6", "--check-nj-wuo"]).is_err());
        for retired in [
            "scaling",
            "prepared",
            "setops",
            "ratio",
            "snapshot",
            "throughput",
            "ablation",
            "--threads",
        ] {
            assert!(parse(&[retired]).is_err(), "{retired} must be rejected");
        }
    }
}
