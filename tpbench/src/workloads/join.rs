//! `meteo_outer` and `webkit_full`: a prepared TP outer join per pair of
//! relations, cycled over four pairs, every cursor drained by the caller.
//!
//! The two share all code and differ in the data: meteo has 40 join keys, so
//! negating windows carry long λs disjunctions and most of a statement is
//! lineage work (interning, probability, tree conversion); webkit has one key
//! per 20 tuples, lineages of 1–3 variables, and a full outer join sweeps in
//! both directions — index build and probe, output formation and per-tuple
//! allocation dominate, and the first row waits for the index.

use crate::cal::RefKernel;
use crate::data::{
    checksum, cold_catalog, expected_of, interval_fold, same_answer, snapshot_path, Expected, Input,
};
use crate::ladder::{join_rungs, lineage_rungs, window_rungs, Ladder};
use crate::run::{cold_setups, Config, Sample, SetupReport, Workload};
use crate::trace::Tracer;
use std::time::Instant;
use tpdb_core::{ThetaCondition, TpJoinKind};
use tpdb_query::Session;
use tpdb_storage::TpRelation;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    Meteo,
    Webkit,
}

impl Dataset {
    fn prefix(self) -> &'static str {
        match self {
            Dataset::Meteo => "meteo",
            Dataset::Webkit => "webkit",
        }
    }

    fn key(self) -> &'static str {
        match self {
            Dataset::Meteo => "Metric",
            Dataset::Webkit => "Key",
        }
    }

    fn tuples(self, smoke: bool) -> usize {
        match (self, smoke) {
            (Dataset::Meteo, false) => 3000,
            (Dataset::Webkit, false) => 12_000,
            (Dataset::Meteo, true) => 300,
            (Dataset::Webkit, true) => 600,
        }
    }

    fn pair(self, tuples: usize, seed: u64) -> (TpRelation, TpRelation) {
        match self {
            Dataset::Meteo => tpdb_datagen::meteo_like(tuples, seed),
            Dataset::Webkit => tpdb_datagen::webkit_like(tuples, seed),
        }
    }
}

/// Pairs of relations a run cycles over: a statement meets data the
/// previous one did not touch, and one odd pair cannot decide a run.
const PAIRS: usize = 4;

/// TA's nested loops are quadratic; above this the independent-path oracle
/// would take longer than the 2 s it is allowed.
const TA_ORACLE_MAX_TUPLES: usize = 4000;

struct JoinWorkload {
    dataset: Dataset,
    kind: TpJoinKind,
    tuples: usize,
    session: Session,
    texts: Vec<String>,
    /// Per pair, what the first (full-check) execution delivered; every
    /// later one must deliver the same, and `verify` holds it against the
    /// oracle.
    seen: Vec<Option<Expected>>,
}

fn join_keyword(kind: TpJoinKind) -> &'static str {
    match kind {
        TpJoinKind::Inner => "INNER",
        TpJoinKind::Anti => "ANTI",
        TpJoinKind::LeftOuter => "LEFT",
        TpJoinKind::RightOuter => "RIGHT",
        TpJoinKind::FullOuter => "FULL",
    }
}

pub fn build(
    config: &Config,
    kernel: &mut RefKernel,
    dataset: Dataset,
    kind: TpJoinKind,
) -> Result<(Box<dyn Workload>, SetupReport), String> {
    let (prefix, key) = (dataset.prefix(), dataset.key());
    let tuples = dataset.tuples(config.smoke);
    let mut inputs = Vec::with_capacity(2 * PAIRS);
    for i in 0..PAIRS {
        // The generator seeds r with the seed and s with seed + 1.
        let (r, s) = dataset.pair(tuples, config.seed.wrapping_mul(64) + 2 * i as u64);
        inputs.push(Input::new(&format!("{prefix}_r{i}"), &r));
        inputs.push(Input::new(&format!("{prefix}_s{i}"), &s));
    }
    let texts: Vec<String> = (0..PAIRS)
        .map(|i| {
            format!(
                "SELECT * FROM {prefix}_r{i} TP {} JOIN {prefix}_s{i} \
                 ON {prefix}_r{i}.{key} = {prefix}_s{i}.{key}",
                join_keyword(kind)
            )
        })
        .collect();

    let snapshot = snapshot_path(&config.workload)?;
    let built = cold_setups(kernel, || {
        let (catalog, times) = cold_catalog(&inputs, &snapshot)?;
        let mut session = Session::new(catalog);
        // One core runs the engine; the other absorbs the neighbours.
        session.set_parallelism(1);
        for text in &texts {
            session.prepare(text).map_err(|e| format!("prepare: {e}"))?;
        }
        // First execution of the statement shape, through a drained cursor.
        let first = session.prepare(&texts[0]).and_then(|stmt| stmt.query(&[]));
        for tuple in first.map_err(|e| format!("first execution: {e}"))? {
            tuple.map_err(|e| format!("first execution: {e}"))?;
        }
        Ok((session, times))
    });
    drop(std::fs::remove_file(&snapshot));
    let (session, setup) = built?;

    let workload = JoinWorkload {
        dataset,
        kind,
        tuples,
        session,
        texts,
        seen: vec![None; PAIRS],
    };
    Ok((Box::new(workload), setup))
}

impl Workload for JoinWorkload {
    fn round(&self) -> u64 {
        PAIRS as u64
    }

    fn classes(&self) -> u64 {
        PAIRS as u64
    }

    fn tail_quantile(&self) -> f64 {
        0.90
    }

    fn op(&mut self, i: u64, full: bool, tracer: &mut Tracer) -> Result<Sample, String> {
        let pair = (i % PAIRS as u64) as usize;
        let statement = tracer.begin("statement", i);
        let started = Instant::now();

        let open = tracer.begin("query.open_cursor", i);
        let cursor = self
            .session
            .prepare(&self.texts[pair])
            .and_then(|stmt| stmt.query(&[]));
        tracer.end(open);
        let mut cursor = cursor.map_err(|e| e.to_string())?;

        let first = tracer.begin("query.first_row", i);
        let head = cursor.next();
        let first_ms = started.elapsed().as_secs_f64() * 1e3;
        tracer.end(first);

        let drain = tracer.begin("query.drain", i);
        let mut rows = Vec::new();
        let mut error = None;
        for tuple in head.into_iter().chain(&mut cursor) {
            match tuple {
                Ok(t) => rows.push(t),
                Err(e) => {
                    error = Some(e.to_string());
                    break;
                }
            }
        }
        let total_ms = started.elapsed().as_secs_f64() * 1e3;
        tracer.end(drain);
        tracer.end(statement);
        if let Some(e) = error {
            return Err(e);
        }

        let want = *self.seen[pair].get_or_insert_with(|| Expected {
            rows: rows.len() as u64,
            interval_fold: interval_fold(&rows),
            checksum: checksum(&rows),
        });
        if rows.len() as u64 != want.rows {
            return Err(format!("{} rows, {} the first time", rows.len(), want.rows));
        }
        if interval_fold(&rows) != want.interval_fold {
            return Err("interval fold differs from the first execution's".to_owned());
        }
        if full && checksum(&rows) != want.checksum {
            return Err("checksum differs from the first execution's".to_owned());
        }
        Ok(Sample {
            total_ms,
            first_ms,
            rows: want.rows,
        })
    }

    /// Reference answers come from the materialising execution path; pair
    /// 0's is compared with Temporal Alignment, which shares no window code
    /// with NJ.
    fn verify(&mut self) -> Result<(), String> {
        for (i, text) in self.texts.iter().enumerate() {
            let reference = self
                .session
                .execute(text)
                .map_err(|e| format!("oracle: {e}"))?;
            if self.seen[i] != Some(expected_of(&reference)) {
                return Err(format!(
                    "pair {i}: the cursor's rows differ from the oracle's"
                ));
            }
            if i == 0 && self.tuples <= TA_ORACLE_MAX_TUPLES {
                let ta = self
                    .session
                    .execute(&format!("{text} STRATEGY TA"))
                    .map_err(|e| format!("TA oracle: {e}"))?;
                same_answer(&reference, &ta).map_err(|e| format!("NJ vs TA on pair 0: {e}"))?;
            }
        }
        Ok(())
    }

    fn ladder(&mut self, ladder: &mut Ladder<'_>) -> Result<(), String> {
        let (prefix, key) = (self.dataset.prefix(), self.dataset.key());
        let catalog = self.session.catalog();
        let relation = |side: &str| {
            catalog
                .relation(&format!("{prefix}_{side}0"))
                .map_err(|e| e.to_string())
        };
        let (r, s) = (relation("r")?, relation("s")?);
        let theta = ThetaCondition::column_equals(key, key);
        let both = self.kind == TpJoinKind::FullOuter;
        let wuon_ms = window_rungs(ladder, &r, &s, &theta, both)?;
        let (out, join_ms) = join_rungs(ladder, &r, &s, &theta, self.kind, wuon_ms)?;
        lineage_rungs(ladder, &[&r, &s], &out);
        drop(out);
        // The same join as a statement: what the query layer adds to it.
        let (session, text) = (&self.session, &self.texts[0]);
        let (statement_ms, rows) = ladder.time("query.statement", || {
            let cursor = session.prepare(text).and_then(|stmt| stmt.query(&[]));
            cursor.and_then(Iterator::collect::<Result<Vec<_>, _>>)
        });
        rows.map_err(|e| e.to_string())?;
        ladder.set("query.session_over_core", statement_ms / join_ms);
        let stats = self.session.stats();
        ladder.set("query.plan_cache_hits", stats.cache_hits as f64);
        ladder.set("query.plan_cache_misses", stats.cache_misses as f64);
        Ok(())
    }
}
