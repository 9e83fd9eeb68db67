//! `wuon_windows`: only the paper's three window algorithms run — the
//! streaming overlap join, LAWAU and LAWAN (Figs. 5–6) — on meteo pairs,
//! windows counted as they leave the pipeline. A window-layer gain shows
//! here at full size; output formation, lineage evaluation, the query layer
//! and the server are bypassed, so the prediction for their optimisations is
//! no change.

use crate::cal::RefKernel;
use crate::data::{cold_catalog, snapshot_path, Input};
use crate::ladder::{window_rungs, Ladder};
use crate::run::{cold_setups, Config, Sample, SetupReport, Workload};
use crate::trace::Tracer;
use std::sync::Arc;
use std::time::Instant;
use tpdb_core::{
    lawan, lawau, overlapping_windows, LawanStream, LawauStream, OverlapWindowStream,
    ThetaCondition, Window,
};
use tpdb_storage::TpRelation;

const PAIRS: usize = 2;

type Pair = (Arc<TpRelation>, Arc<TpRelation>);

struct WindowsWorkload {
    pairs: Vec<Pair>,
    theta: ThetaCondition,
    /// Per pair: window count and order-sensitive fold of the first pass;
    /// every later pass must give the same, and `verify` holds the stream
    /// against the oracle.
    seen: Vec<Option<(u64, u64)>>,
}

fn fold_window(acc: u64, w: &Window) -> u64 {
    acc.wrapping_mul(0x0000_0100_0000_01B3).wrapping_add(
        w.interval.start() as u64
            ^ (w.interval.end() as u64).rotate_left(32)
            ^ (w.r_idx as u64).rotate_left(17)
            ^ (w.kind as u64).rotate_left(59),
    )
}

/// Streams WUON over one pair; returns the time to the first window, the
/// window count and the fold.
fn stream_pass(pair: &Pair, theta: &ThetaCondition) -> Result<(f64, u64, u64), String> {
    let (r, s) = (&*pair.0, &*pair.1);
    let started = Instant::now();
    let wo = OverlapWindowStream::new(r, s, theta).map_err(|e| e.to_string())?;
    let mut stream = LawanStream::new(LawauStream::new(wo, r));
    let head = stream.next();
    let first_ms = started.elapsed().as_secs_f64() * 1e3;
    let (mut count, mut fold) = (0u64, 0u64);
    for w in head.into_iter().chain(stream) {
        count += 1;
        fold = fold_window(fold, &w);
    }
    Ok((first_ms, count, fold))
}

/// Window identity for the order-free comparison with the oracle.
fn window_key(w: &Window) -> (usize, i64, i64, u8, Option<usize>) {
    (
        w.r_idx,
        w.interval.start(),
        w.interval.end(),
        w.kind as u8,
        w.s_idx,
    )
}

pub fn build(
    config: &Config,
    kernel: &mut RefKernel,
) -> Result<(Box<dyn Workload>, SetupReport), String> {
    let tuples = if config.smoke { 400 } else { 8000 };
    let mut inputs = Vec::with_capacity(2 * PAIRS);
    for i in 0..PAIRS {
        let (r, s) = tpdb_datagen::meteo_like(tuples, config.seed.wrapping_mul(64) + 2 * i as u64);
        inputs.push(Input::new(&format!("meteo_r{i}"), &r));
        inputs.push(Input::new(&format!("meteo_s{i}"), &s));
    }
    let theta = ThetaCondition::column_equals("Metric", "Metric");
    let snapshot = snapshot_path(&config.workload)?;
    let built = cold_setups(kernel, || {
        let (catalog, times) = cold_catalog(&inputs, &snapshot)?;
        let mut pairs = Vec::with_capacity(PAIRS);
        for i in 0..PAIRS {
            let relation = |side: &str| {
                catalog
                    .relation(&format!("meteo_{side}{i}"))
                    .map_err(|e| e.to_string())
            };
            pairs.push((relation("r")?, relation("s")?));
        }
        stream_pass(&pairs[0], &theta)?;
        Ok((pairs, times))
    });
    drop(std::fs::remove_file(&snapshot));
    let (pairs, setup) = built?;

    let workload = WindowsWorkload {
        pairs,
        theta,
        seen: vec![None; PAIRS],
    };
    Ok((Box::new(workload), setup))
}

impl Workload for WindowsWorkload {
    fn round(&self) -> u64 {
        PAIRS as u64
    }

    fn classes(&self) -> u64 {
        PAIRS as u64
    }

    fn tail_quantile(&self) -> f64 {
        0.90
    }

    fn op(&mut self, i: u64, _full: bool, tracer: &mut Tracer) -> Result<Sample, String> {
        let pair = (i % PAIRS as u64) as usize;
        let span = tracer.begin("core.wuon_stream", i);
        let started = Instant::now();
        let pass = stream_pass(&self.pairs[pair], &self.theta);
        let total_ms = started.elapsed().as_secs_f64() * 1e3;
        tracer.end(span);
        let (first_ms, count, fold) = pass?;
        // Count and fold are the full check here: the fold covers every
        // field a window has besides its lineage.
        let (want_count, want_fold) = *self.seen[pair].get_or_insert((count, fold));
        if count != want_count {
            return Err(format!("{count} windows, {want_count} on the first pass"));
        }
        if fold != want_fold {
            return Err("window fold differs from the first pass's".to_owned());
        }
        Ok(Sample {
            total_ms,
            first_ms,
            rows: count,
        })
    }

    /// The oracle: the materialising algorithms (`overlapping_windows` →
    /// `lawau` → `lawan`), which share the sweep kernels with the streams but
    /// not their grouping, buffering or laziness.
    fn verify(&mut self) -> Result<(), String> {
        for (i, pair) in self.pairs.iter().enumerate() {
            let theta = &self.theta;
            let wo = overlapping_windows(&pair.0, &pair.1, theta).map_err(|e| e.to_string())?;
            let mut oracle: Vec<_> = lawan(&lawau(&wo, &pair.0)).iter().map(window_key).collect();
            let wo =
                OverlapWindowStream::new(&*pair.0, &*pair.1, theta).map_err(|e| e.to_string())?;
            let streamed: Vec<Window> = LawanStream::new(LawauStream::new(wo, &*pair.0)).collect();
            let mut ours: Vec<_> = streamed.iter().map(window_key).collect();
            oracle.sort_unstable();
            ours.sort_unstable();
            if ours != oracle {
                return Err(format!(
                    "pair {i}: streamed WUON differs from the materialised oracle"
                ));
            }
            let digest = (streamed.len() as u64, streamed.iter().fold(0, fold_window));
            if self.seen[i] != Some(digest) {
                return Err(format!(
                    "pair {i}: the timed passes differ from the checked stream"
                ));
            }
        }
        Ok(())
    }

    fn ladder(&mut self, ladder: &mut Ladder<'_>) -> Result<(), String> {
        let (r, s) = &self.pairs[0];
        window_rungs(ladder, r, s, &self.theta, false).map(|_| ())
    }
}
