//! The layer ladder of a traced run: the layers under a workload's
//! statements, timed from outside through their public functions, one rung
//! above the other. A rung's self time is its time minus the rung below
//! (`core.lawau_self_ms` = WUO − WO, `core.output_form_ms` = join − WUON).
//! Every rung repetition is one span; all times are calibrated with the
//! reference kernel interleaved between repetitions.

use crate::cal::{median, Phase, RefKernel};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use tpdb_core::{
    tp_join, tp_join_parallel, LawanStream, LawauStream, OverlapWindowStream, ThetaCondition,
    TpJoinKind,
};
use tpdb_lineage::{Lineage, ProbabilityEngine};
use tpdb_storage::TpRelation;
use tpdb_temporal::SortedIntervalIndex;

pub struct Ladder<'a> {
    tracer: &'a mut Tracer,
    phase: Phase<'a>,
    reps: usize,
    rung: u64,
    /// Wall times in ms, calibrated when the ladder is finished.
    times: BTreeMap<&'static str, f64>,
    /// Counts and ratios, reported as measured.
    plain: BTreeMap<&'static str, f64>,
}

impl<'a> Ladder<'a> {
    pub fn new(kernel: &'a mut RefKernel, tracer: &'a mut Tracer, smoke: bool) -> Self {
        tracer.set_enabled(true);
        Self {
            tracer,
            phase: Phase::start(kernel),
            reps: if smoke { 1 } else { 3 },
            rung: 0,
            times: BTreeMap::new(),
            plain: BTreeMap::new(),
        }
    }

    pub fn reps(&self) -> usize {
        self.reps
    }

    /// Times one call under a span; the reference kernel runs first if due.
    pub fn once<T>(&mut self, span: &'static str, f: impl FnOnce() -> T) -> (f64, T) {
        self.phase.tick();
        self.rung += 1;
        let open = self.tracer.begin(span, self.rung);
        let started = Instant::now();
        let out = black_box(f());
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.tracer.end(open);
        (ms, out)
    }

    /// Median wall time of `reps` calls, and the last call's result.
    pub fn time<T>(&mut self, span: &'static str, mut f: impl FnMut() -> T) -> (f64, T) {
        let (first_ms, mut out) = self.once(span, &mut f);
        let mut all = vec![first_ms];
        for _ in 1..self.reps {
            // A repetition starts as the first did: without the previous
            // result alive beside it.
            drop(out);
            let (ms, next) = self.once(span, &mut f);
            all.push(ms);
            out = next;
        }
        (median(&mut all), out)
    }

    /// Records a wall time in ms under a metric name (calibrated at the end).
    pub fn set_ms(&mut self, metric: &'static str, wall_ms: f64) {
        self.times.insert(metric, wall_ms);
    }

    /// Records a count or ratio.
    pub fn set(&mut self, metric: &'static str, value: f64) {
        self.plain.insert(metric, value);
    }

    /// Calibrates the rung times and hands every metric to `values`.
    pub fn finish(mut self, values: &mut BTreeMap<&'static str, f64>) {
        self.phase.run_kernel();
        self.tracer.set_enabled(false);
        let factor = self.phase.factor();
        values.insert("bench.ladder_ref_ms", self.phase.ref_ms());
        for (name, wall_ms) in &self.times {
            values.insert(name, wall_ms * factor);
        }
        values.extend(self.plain);
    }
}

/// `tpdb-temporal` and the three window algorithms of `tpdb-core` on one
/// pair. With `both_directions` (a full outer join sweeps r against s and s
/// against r) the window rungs time both sweeps. Returns the WUON time.
pub fn window_rungs(
    ladder: &mut Ladder<'_>,
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
    both_directions: bool,
) -> Result<f64, String> {
    let (index_ms, index) = ladder.time("temporal.index_build", || {
        let mut builder = SortedIntervalIndex::builder();
        for (i, t) in s.iter().enumerate() {
            builder.push(t.interval(), i);
        }
        builder.finish()
    });
    ladder.set_ms("temporal.index_build_ms", index_ms);
    ladder.set("temporal.index_intervals", index.len() as f64);

    let flipped = theta.flipped();
    let sweeps: Vec<(&TpRelation, &TpRelation, &ThetaCondition)> = if both_directions {
        vec![(r, s, theta), (s, r, &flipped)]
    } else {
        vec![(r, s, theta)]
    };
    // θ binds or not regardless of timing: check once, outside the rungs.
    for (p, n, t) in &sweeps {
        OverlapWindowStream::new(*p, *n, t).map_err(|e| format!("θ does not bind: {e}"))?;
    }
    let stream = |p, n, t| OverlapWindowStream::new(p, n, t).expect("θ bound above");

    let (wo_ms, wo) = ladder.time("core.wo", || {
        sweeps
            .iter()
            .map(|&(p, n, t)| stream(p, n, t).count())
            .sum::<usize>()
    });
    let (wuo_ms, wuo) = ladder.time("core.wuo", || {
        sweeps
            .iter()
            .map(|&(p, n, t)| LawauStream::new(stream(p, n, t), p).count())
            .sum::<usize>()
    });
    let (wuon_ms, wuon) = ladder.time("core.wuon", || {
        sweeps
            .iter()
            .map(|&(p, n, t)| LawanStream::new(LawauStream::new(stream(p, n, t), p)).count())
            .sum::<usize>()
    });
    ladder.set_ms("core.wo_ms", wo_ms);
    ladder.set_ms("core.lawau_self_ms", wuo_ms - wo_ms);
    ladder.set_ms("core.lawan_self_ms", wuon_ms - wuo_ms);
    ladder.set("core.wo_windows", wo as f64);
    ladder.set("core.wuo_windows", wuo as f64);
    ladder.set("core.wuon_windows", wuon as f64);
    Ok(wuon_ms)
}

/// Output formation (`tp_join` over the windows), the parallel ratio and the
/// TA baseline on one pair. Returns the join result and the join's wall time.
pub fn join_rungs(
    ladder: &mut Ladder<'_>,
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
    kind: TpJoinKind,
    wuon_ms: f64,
) -> Result<(TpRelation, f64), String> {
    tp_join(r, s, theta, kind).map_err(|e| format!("tp_join: {e}"))?;
    let run = |p: usize| {
        if p == 0 {
            tp_join(r, s, theta, kind).expect("joined above")
        } else {
            tp_join_parallel(r, s, theta, kind, p).expect("joined above")
        }
    };
    let (join_ms, out) = ladder.time("core.join", || run(0));
    ladder.set_ms("core.join_ms", join_ms);
    ladder.set_ms("core.output_form_ms", join_ms - wuon_ms);
    ladder.set("core.out_rows", out.len() as f64);

    let (p1_ms, _) = ladder.time("core.join_p1", || run(1).len());
    let (p2_ms, _) = ladder.time("core.join_p2", || run(2).len());
    ladder.set("core.p2_speedup", p1_ms / p2_ms);

    // One pass: TA is the paper's comparison point (Fig. 7), not a gate.
    let (ta_ms, ta_rows) = ladder.once("ta.join", || {
        tpdb_ta::ta_join(r, s, theta, kind).map(|rel| rel.len())
    });
    if ta_rows.map_err(|e| format!("ta_join: {e}"))? != out.len() {
        return Err("TA and NJ disagree on the row count".to_owned());
    }
    ladder.set_ms("ta.join_ms", ta_ms);
    ladder.set("core.nj_vs_ta", ta_ms / join_ms);
    Ok((out, join_ms))
}

/// `tpdb-lineage` on the lineages of a statement's output tuples: interning
/// the trees, cold-memo probability of every root, and the conversion back
/// to trees. `inputs` supply the marginals.
pub fn lineage_rungs(ladder: &mut Ladder<'_>, inputs: &[&TpRelation], output: &TpRelation) -> f64 {
    let lineages: Vec<&Lineage> = output.iter().map(|t| t.lineage()).collect();
    let (mut intern, mut prob, mut tree) = (Vec::new(), Vec::new(), Vec::new());
    let (mut nodes, mut expansions) = (0usize, 0u64);
    for _ in 0..ladder.reps() {
        // A fresh engine per repetition: the memo must be cold.
        let mut engine = ProbabilityEngine::new();
        for input in inputs {
            input.register_probabilities(&mut engine);
        }
        let (ms, roots) = ladder.once("lineage.intern", || {
            lineages
                .iter()
                .map(|l| engine.intern(l))
                .collect::<Vec<_>>()
        });
        intern.push(ms);
        let (ms, _) = ladder.once("lineage.prob", || {
            roots
                .iter()
                .map(|&root| engine.probability_ref(root))
                .sum::<f64>()
        });
        prob.push(ms);
        let (ms, _) = ladder.once("lineage.to_tree", || {
            roots
                .iter()
                .map(|&root| engine.to_lineage(root))
                .collect::<Vec<_>>()
        });
        tree.push(ms);
        nodes = engine.interner().len();
        expansions = engine.expansions();
    }
    let prob_ms = median(&mut prob);
    ladder.set_ms("lineage.intern_ms", median(&mut intern));
    ladder.set_ms("lineage.prob_ms", prob_ms);
    ladder.set_ms("lineage.to_tree_ms", median(&mut tree));
    ladder.set("lineage.arena_nodes", nodes as f64);
    ladder.set(
        "lineage.nodes_per_root",
        nodes as f64 / lineages.len().max(1) as f64,
    );
    ladder.set("lineage.shannon_expansions", expansions as f64);
    prob_ms
}
