//! The run shape every workload shares: cold set-ups → warm-up round →
//! timed phase with the reference kernel interleaved → closing full-check
//! round → metrics. With tracing, the timed phase runs twice (spans off,
//! spans on) and the workload then climbs its layer ladder.

use crate::cal::{mean, median, percentile, Phase, RefKernel, REF_NOMINAL_MS};
use crate::data::{work_dir, StorageTimes};
use crate::json::{obj, Json};
use crate::ladder::Ladder;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workloads;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs: checks the benchmark itself, not the engine's speed.
    pub smoke: bool,
}

/// One successful operation, timed from submit.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Until the last row is held by the caller.
    pub total_ms: f64,
    /// Until the first row (or, served, until the reply) is held.
    pub first_ms: f64,
    pub rows: u64,
}

/// A sample and the class of statement it belongs to (see
/// [`Workload::classes`]).
#[derive(Debug, Clone, Copy)]
struct Classed {
    class: usize,
    sample: Sample,
}

pub trait Workload {
    /// Operations in the warm-up and in the closing full-check round.
    fn round(&self) -> u64;
    /// Statement classes whose times are summarised separately: operation
    /// `i` is of class `i % classes()`. The batch workloads cycle over pairs
    /// of relations of different sizes — one class per pair, so that the
    /// median of a run is not decided by where it falls between two pairs.
    /// One class means: all operations in one distribution.
    fn classes(&self) -> u64;
    /// The tail percentile this workload's sample count supports (at least
    /// ten samples beyond it).
    fn tail_quantile(&self) -> f64;
    /// Runs operation `i` of the schedule and checks its output: row count
    /// and interval fold always, the full checksum when `full`.
    fn op(&mut self, i: u64, full: bool, tracer: &mut Tracer) -> Result<Sample, String>;
    /// Computes the oracle's answers and compares them with what the
    /// operations saw. Runs after the timed phase and after `peak_rss_mb` is
    /// read, so that the oracle's memory is not taken for the engine's.
    fn verify(&mut self) -> Result<(), String>;
    /// Times the layers under this workload's statements, on its own inputs.
    fn ladder(&mut self, ladder: &mut Ladder<'_>) -> Result<(), String>;
}

/// What `cold_setups` hands back besides the set-up workload.
#[derive(Debug, Clone, Copy)]
pub struct SetupReport {
    /// Calibrated median of the cold set-ups.
    pub setup_s: f64,
    pub storage: StorageTimes,
}

/// Cold set-ups per run: at least `MIN_SETUPS`, and more of a cheap set-up
/// (until `SETUP_BUDGET_S` is spent or `MAX_SETUPS` are done), so that the
/// median of a 20 ms set-up is as steady as that of a 300 ms one.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 1.5;

/// Runs `one` (a complete cold set-up) several times with the reference
/// kernel on either side of each, keeps the last product.
pub fn cold_setups<T>(
    kernel: &mut RefKernel,
    mut one: impl FnMut() -> Result<(T, StorageTimes), String>,
) -> Result<(T, SetupReport), String> {
    let mut calibrated = Vec::new();
    let mut storage = Vec::new();
    let mut product = None;
    let budget = Instant::now();
    let mut before = kernel.run();
    while calibrated.len() < MIN_SETUPS
        || (calibrated.len() < MAX_SETUPS && budget.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        // The previous set-up's product goes first: a cold set-up starts
        // with nothing loaded.
        drop(product.take());
        let started = Instant::now();
        let (built, times) = one()?;
        let wall_s = started.elapsed().as_secs_f64();
        let after = kernel.run();
        let factor = REF_NOMINAL_MS / mean(&[before, after]);
        calibrated.push(wall_s * factor);
        storage.push((times, factor));
        product = Some(built);
        before = after;
    }
    let pick = |f: fn(&StorageTimes) -> f64| {
        median(&mut storage.iter().map(|(t, k)| f(t) * k).collect::<Vec<_>>())
    };
    let report = SetupReport {
        setup_s: median(&mut calibrated),
        storage: StorageTimes {
            csv_import_s: pick(|t| t.csv_import_s),
            snapshot_save_s: pick(|t| t.snapshot_save_s),
            snapshot_load_s: pick(|t| t.snapshot_load_s),
            snapshot_bytes: storage.last().map_or(0, |(t, _)| t.snapshot_bytes),
        },
    };
    product
        .map(|p| (p, report))
        .ok_or_else(|| "no set-up ran".to_owned())
}

/// Operations attempted and failed over the whole run, with the reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.failures.push(reason);
    }

    /// Counts one operation; hands on the sample of a successful one.
    fn op(&mut self, i: u64, result: Result<Sample, String>) -> Option<Sample> {
        self.attempted += 1;
        result.map_err(|e| self.fail(format!("op {i}: {e}"))).ok()
    }
}

/// The outcome of one timed phase.
struct Timed {
    samples: Vec<Classed>,
    /// Mean time of the reference kernel during the phase.
    ref_ms: f64,
    next_op: u64,
}

impl Timed {
    /// Multiply a wall time of this phase by this to calibrate it.
    fn factor(&self) -> f64 {
        REF_NOMINAL_MS / self.ref_ms
    }

    /// Ratio of sums, uncalibrated: rows delivered over the wall time of the
    /// statements that delivered them.
    fn raw_out_per_s(&self) -> f64 {
        let rows: f64 = self.samples.iter().map(|c| c.sample.rows as f64).sum();
        let wall_s = self.samples.iter().map(|c| c.sample.total_ms).sum::<f64>() / 1e3;
        rows / wall_s
    }

    fn out_per_s(&self) -> f64 {
        self.raw_out_per_s() / self.factor()
    }

    /// Per class, the median of `time` over the class's samples.
    fn class_medians(&self, classes: usize, time: fn(&Sample) -> f64) -> Vec<f64> {
        (0..classes)
            .map(|class| {
                let mut of_class: Vec<f64> = self
                    .samples
                    .iter()
                    .filter(|c| c.class == class)
                    .map(|c| time(&c.sample))
                    .collect();
                median(&mut of_class)
            })
            .collect()
    }

    /// The typical statement, uncalibrated: the mean over classes of the
    /// class median (with one class, the median).
    fn typical_ms(&self, classes: usize, time: fn(&Sample) -> f64) -> f64 {
        mean(&self.class_medians(classes, time))
    }

    /// The tail, uncalibrated: the typical statement times the `q`
    /// percentile of every sample's ratio to its class median (with one
    /// class, the `q` percentile).
    fn tail_ms(&self, classes: usize, q: f64) -> f64 {
        let medians = self.class_medians(classes, |s| s.total_ms);
        let mut ratios: Vec<f64> = self
            .samples
            .iter()
            .map(|c| c.sample.total_ms / medians[c.class])
            .collect();
        mean(&medians) * percentile(&mut ratios, q)
    }
}

/// Runs whole rounds of operations until `seconds` have passed.
fn timed_phase(
    workload: &mut dyn Workload,
    kernel: &mut RefKernel,
    seconds: f64,
    first_op: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Timed {
    let (round, classes) = (workload.round(), workload.classes());
    let mut samples = Vec::new();
    let mut i = first_op;
    let mut phase = Phase::start(kernel);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || !(i - first_op).is_multiple_of(round) {
        phase.tick();
        if let Some(sample) = tally.op(i, workload.op(i, false, tracer)) {
            let class = (i % classes) as usize;
            samples.push(Classed { class, sample });
        }
        i += 1;
    }
    phase.run_kernel();
    Timed {
        samples,
        ref_ms: phase.ref_ms(),
        next_op: i,
    }
}

/// One round with the full check; not timed. Returns the next operation.
fn checked_round(
    workload: &mut dyn Workload,
    first_op: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> u64 {
    let end = first_op + workload.round();
    for i in first_op..end {
        tally.op(i, workload.op(i, true, tracer));
    }
    end
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A finished run: what the last line of output is made of.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// The machine and run facts printed on the line before the result.
    pub info: Json,
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let entry = obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str((*unit).to_owned())),
                ]);
                ((*name).to_owned(), entry)
            })
            .collect();
        obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let mut kernel = RefKernel::new();
    let mut tally = Tally::default();
    let (mut workload, setup) = workloads::build(config, &mut kernel)?;
    let workload = workload.as_mut();
    let mut tracer = Tracer::new(false);

    let next_op = checked_round(workload, 0, &mut tracer, &mut tally);

    // With tracing the same budget covers an untraced and a traced phase
    // (their ratio is the tracing overhead) and the ladder.
    let seconds = if config.trace {
        config.seconds * 0.3
    } else {
        config.seconds
    };
    let untraced = timed_phase(
        workload,
        &mut kernel,
        seconds,
        next_op,
        &mut tracer,
        &mut tally,
    );
    let peak_rss = peak_rss_mib();
    let traced = config.trace.then(|| {
        tracer.set_enabled(true);
        let next_op = untraced.next_op;
        let phase = timed_phase(
            workload,
            &mut kernel,
            seconds,
            next_op,
            &mut tracer,
            &mut tally,
        );
        tracer.set_enabled(false);
        phase
    });
    let reported = traced.as_ref().unwrap_or(&untraced);
    checked_round(workload, reported.next_op, &mut tracer, &mut tally);
    if let Err(e) = workload.verify() {
        tally.fail(format!("oracle: {e}"));
    }
    if reported.samples.is_empty() {
        return Err(format!("no operation succeeded: {:?}", tally.failures));
    }

    let factor = reported.factor();
    let tail_q = workload.tail_quantile();
    let classes = workload.classes() as usize;
    let n = reported.samples.len();
    let beyond = n - ((tail_q * n as f64).ceil() as usize).clamp(1, n);
    let raw_stmt_ms = reported.typical_ms(classes, |s| s.total_ms);
    let raw_out_per_s = reported.raw_out_per_s();

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    values.insert("out_per_s", reported.out_per_s());
    values.insert("stmt_ms", raw_stmt_ms * factor);
    values.insert("tail_ms", reported.tail_ms(classes, tail_q) * factor);
    values.insert(
        "first_row_ms",
        reported.typical_ms(classes, |s| s.first_ms) * factor,
    );
    values.insert("peak_rss_mb", peak_rss);
    values.insert("setup_s", setup.setup_s);

    if config.trace {
        values.insert("storage.csv_import_s", setup.storage.csv_import_s);
        values.insert("storage.snapshot_save_s", setup.storage.snapshot_save_s);
        values.insert("storage.snapshot_load_s", setup.storage.snapshot_load_s);
        values.insert(
            "storage.snapshot_bytes",
            setup.storage.snapshot_bytes as f64,
        );
        values.insert("bench.ref_ms", reported.ref_ms);
        values.insert("bench.cal_factor", factor);
        values.insert("bench.raw_out_per_s", raw_out_per_s);
        values.insert("bench.raw_stmt_ms", raw_stmt_ms);
        values.insert("bench.samples", n as f64);
        values.insert("bench.tail_samples_beyond", beyond as f64);
        values.insert(
            "bench.trace_overhead_frac",
            reported.out_per_s() / untraced.out_per_s(),
        );
        let mut ladder = Ladder::new(&mut kernel, &mut tracer, config.smoke);
        workload.ladder(&mut ladder)?;
        ladder.finish(&mut values);
        values.insert("bench.trace_spans", tracer.recorded() as f64);
        let path = work_dir()?.join(format!("{}.trace.json", config.workload));
        tracer
            .write_chrome(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    let metrics = if config.trace {
        PER_LAYER
            .iter()
            // A layer this workload's statements never enter reports 0.
            .map(|(name, unit)| (*name, *unit, values.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, values[m.name]))
            .collect()
    };
    let info = obj(vec![
        ("workload", Json::Str(config.workload.clone())),
        ("seed", Json::Num(config.seed as f64)),
        ("seconds", Json::Num(config.seconds)),
        ("smoke", Json::Bool(config.smoke)),
        ("trace", Json::Bool(config.trace)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("samples", Json::Num(n as f64)),
        ("tail_quantile", Json::Num(tail_q)),
        ("tail_samples_beyond", Json::Num(beyond as f64)),
        ("bench.ref_ms", Json::Num(reported.ref_ms)),
        ("bench.cal_factor", Json::Num(factor)),
        ("bench.raw_out_per_s", Json::Num(raw_out_per_s)),
        ("bench.raw_stmt_ms", Json::Num(raw_stmt_ms)),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ]);
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        info,
        failures: tally.failures,
    })
}
