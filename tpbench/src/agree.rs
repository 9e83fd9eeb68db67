//! `tpbench agree`: the noise criterion as one command. Two sets of runs of
//! the same binary, every run with another seed; per end-to-end metric and
//! workload it prints both medians, the quartiles, the spread (distance
//! between the first and third quartile as a share of the median) and the
//! gap between the two medians, and judges them against the metric's bound.

use crate::cal::{median, quartiles};
use crate::json::{self, Json};
use crate::spec::{END_TO_END, WORKLOADS};
use std::collections::BTreeMap;
use std::process::Command;

/// Raw (uncalibrated) values from the info line, listed beside the
/// calibrated metric they correspond to.
const RAW_OF: [(&str, &str); 2] = [
    ("out_per_s", "bench.raw_out_per_s"),
    ("stmt_ms", "bench.raw_stmt_ms"),
];

type Values = BTreeMap<String, Vec<f64>>;

/// One run in a process of its own, so `peak_rss_mb` is that run's alone.
fn one_run(workload: &str, seed: u64, seconds: f64, into: &mut Values) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let mut lines = stdout.lines().rev();
    let result = json::parse(lines.next().unwrap_or_default())?;
    let info = json::parse(lines.next().unwrap_or_default())?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{workload} seed {seed}: outputs were not correct"));
    }
    for (name, entry) in result.get("metrics").map(Json::as_obj).unwrap_or_default() {
        let value = entry.get("value").and_then(Json::as_f64);
        into.entry(name.clone())
            .or_default()
            .push(value.ok_or_else(|| format!("{name}: no value"))?);
    }
    let shown = |name: &str| {
        into.get(name)
            .and_then(|v| v.last())
            .copied()
            .unwrap_or(0.0)
    };
    eprintln!(
        "  {workload} seed {seed}: out_per_s {:.0} stmt_ms {:.4} tail_ms {:.4} setup_s {:.4}",
        shown("out_per_s"),
        shown("stmt_ms"),
        shown("tail_ms"),
        shown("setup_s")
    );
    for (_, raw) in RAW_OF {
        let value = info
            .get("info")
            .and_then(|i| i.get(raw))
            .and_then(Json::as_f64);
        into.entry(raw.to_owned())
            .or_default()
            .push(value.ok_or_else(|| format!("{raw}: not on the info line"))?);
    }
    Ok(())
}

struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        let [q1, _, q3] = quartiles(&mut sorted);
        Self {
            median: median(&mut sorted),
            q1,
            q3,
        }
    }

    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative: better).
fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (first - second) / first
    } else {
        (second - first) / first
    }
}

pub fn agree(runs: usize, seconds: f64) -> Result<bool, String> {
    println!(
        "tpbench agree: 2 sets x {runs} runs x {} workloads, {seconds} s each, seeds 1..={}",
        WORKLOADS.len(),
        2 * runs
    );
    let mut sets: Vec<BTreeMap<&str, Values>> = Vec::new();
    for set in 0..2u64 {
        let mut by_workload = BTreeMap::new();
        for workload in WORKLOADS {
            let mut values = Values::new();
            for k in 1..=runs as u64 {
                one_run(workload, set * runs as u64 + k, seconds, &mut values)?;
            }
            by_workload.insert(workload, values);
        }
        sets.push(by_workload);
    }

    println!(
        "{:<13} {:<20} {:>11} {:>11} {:>11} {:>7} {:>11} {:>7} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "median A",
        "q1 A",
        "q3 A",
        "iqr A",
        "median B",
        "iqr B",
        "gap",
        "bound"
    );
    let mut all_pass = true;
    for workload in WORKLOADS {
        let row = |name: &str, bound: Option<f64>, higher: bool, gate_spread: bool| {
            let a = Summary::of(&sets[0][workload][name]);
            let b = Summary::of(&sets[1][workload][name]);
            let gap = worsening(a.median, b.median, higher);
            let verdict = bound.map(|bound| {
                let spread_ok = !gate_spread || a.spread().max(b.spread()) <= bound;
                spread_ok && gap <= bound
            });
            println!(
                "{:<13} {:<20} {:>11.4} {:>11.4} {:>11.4} {:>6.2}% {:>11.4} {:>6.2}% {:>+6.2}% {:>6}  {}",
                workload,
                name,
                a.median,
                a.q1,
                a.q3,
                a.spread() * 100.0,
                b.median,
                b.spread() * 100.0,
                gap * 100.0,
                bound.map_or("-".to_owned(), |b| format!("{:.0}%", b * 100.0)),
                match verdict {
                    Some(true) => "PASS",
                    Some(false) => "FAIL",
                    None => "(raw, not gated)",
                }
            );
            verdict.unwrap_or(true)
        };
        for metric in &END_TO_END {
            // The spread of set-up time is not gated, only its median.
            let gate_spread = metric.name != "setup_s";
            all_pass &= row(
                metric.name,
                Some(metric.bound),
                metric.higher_is_better,
                gate_spread,
            );
            if let Some((_, raw)) = RAW_OF.iter().find(|(of, _)| *of == metric.name) {
                row(raw, None, metric.higher_is_better, false);
            }
        }
    }
    println!(
        "{}",
        if all_pass {
            "agree: PASS"
        } else {
            "agree: FAIL"
        }
    );
    Ok(all_pass)
}
