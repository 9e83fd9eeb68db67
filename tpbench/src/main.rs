//! The TPDB benchmark: four workloads, six end-to-end metrics, and a traced
//! run that attributes time to the engine's layers. See README.md.
//!
//! ```text
//! tpbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! tpbench --smoke                  all four workloads, tiny inputs
//! tpbench agree [--runs 10] [--seconds 20]
//! ```
//!
//! Run it from the root of a checkout: scratch and trace files go to
//! `.bench_work/` under the current directory.

mod agree;
mod cal;
mod data;
mod json;
mod ladder;
mod run;
mod spec;
mod trace;
mod workloads;

use run::Config;
use std::process::ExitCode;

const USAGE: &str = "usage: tpbench --workload <meteo_outer|webkit_full|wuon_windows|served_mix> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       \
                     tpbench --smoke\n       \
                     tpbench agree [--runs N] [--seconds S]";

/// Length of a smoke run's timed phase.
const SMOKE_SECONDS: f64 = 0.4;

struct Args {
    agree: bool,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        agree: false,
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 10,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "agree" => parsed.agree = true,
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_owned())?;
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_owned())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be within (0, 600]".to_owned());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                };
            }
            "--runs" => {
                parsed.runs = value("--runs")?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 2)
                    .ok_or_else(|| "--runs takes a whole number of at least 2".to_owned())?;
            }
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Runs one workload and prints its info line and, last, its result line.
fn run_and_print(config: &Config) -> bool {
    match run::run(config) {
        Ok(outcome) => {
            for failure in outcome.failures.iter().take(10) {
                eprintln!("tpbench: {}: {failure}", config.workload);
            }
            println!(
                "{}",
                json::obj(vec![("info", outcome.info.clone())]).render()
            );
            println!("{}", outcome.result_json().render());
            outcome.correct()
        }
        Err(e) => {
            eprintln!("tpbench: {}: {e}", config.workload);
            false
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tpbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.agree {
        return match agree::agree(args.runs, args.seconds.unwrap_or(20.0)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("tpbench agree: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let default_seconds = if args.smoke { SMOKE_SECONDS } else { 20.0 };
    let config = |workload: &str| Config {
        workload: workload.to_owned(),
        seed: args.seed,
        seconds: args.seconds.unwrap_or(default_seconds),
        trace: args.trace,
        smoke: args.smoke,
    };
    let ok = match (&args.workload, args.smoke) {
        (Some(workload), _) => run_and_print(&config(workload)),
        (None, true) => {
            // Every workload runs, whatever the one before it did.
            let passed: Vec<bool> = spec::WORKLOADS
                .iter()
                .map(|w| run_and_print(&config(w)))
                .collect();
            passed.iter().all(|ok| *ok)
        }
        (None, false) => {
            eprintln!("tpbench: --workload is required\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;
    use std::collections::BTreeSet;

    fn names(section: &Json) -> BTreeSet<String> {
        section
            .as_arr()
            .iter()
            .filter_map(|entry| entry.get("name").and_then(Json::as_str))
            .map(str::to_owned)
            .collect()
    }

    /// The smoke run prints exactly the names `BENCHMARK.json` lists — in
    /// both directions — with finite values and no failed operation.
    #[test]
    fn smoke_run_reports_the_names_benchmark_json_lists() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repo root");
        let benchmark = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| names(benchmark.get(key).expect("section present"));

        let workloads: BTreeSet<String> = spec::WORKLOADS.iter().map(|w| (*w).to_owned()).collect();
        assert_eq!(workloads, listed("workloads"));
        for entry in benchmark.get("end_to_end").expect("end_to_end").as_arr() {
            let name = entry.get("name").and_then(Json::as_str).expect("name");
            let ours = spec::end_to_end(name).expect("metric known to the benchmark");
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(ours.unit));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(ours.bound));
            let better = if ours.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
        }

        // The workloads share `.bench_work/`; tests of this package run from
        // its own directory, which is inside the checkout.
        for workload in spec::WORKLOADS {
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let outcome = run::run(&Config {
                    workload: workload.to_owned(),
                    seed: 7,
                    seconds: SMOKE_SECONDS,
                    trace,
                    smoke: true,
                })
                .unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
                assert_eq!(outcome.failed, 0, "{workload}: {:?}", outcome.failures);
                assert!(outcome.attempted >= 1);
                let printed: BTreeSet<String> = outcome
                    .metrics
                    .iter()
                    .map(|(n, _, _)| (*n).to_owned())
                    .collect();
                assert_eq!(printed, listed(section), "{workload} trace={trace}");
                for (name, _, value) in &outcome.metrics {
                    assert!(value.is_finite(), "{workload}: {name} = {value}");
                }
                let result = outcome.result_json();
                let keys: Vec<&str> = result.as_obj().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
        }
    }

    #[test]
    fn arguments_of_the_driver_parse() {
        let args: Vec<String> = "--workload served_mix --seed 3 --seconds 20 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let parsed = parse_args(&args).expect("driver arguments");
        assert_eq!(parsed.workload.as_deref(), Some("served_mix"));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (3, Some(20.0), true)
        );
        assert!(parse_args(&["--trace".to_owned(), "2".to_owned()]).is_err());
        assert!(parse_args(&["--bogus".to_owned()]).is_err());
    }
}
