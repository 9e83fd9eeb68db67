//! Synthetic workload generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tpdb_lineage::Lineage;
use tpdb_storage::{DataType, Schema, TpRelation, TpTuple, Value};
use tpdb_temporal::Interval;

/// Parameters of the generic synthetic generators ([`uniform`] / [`zipf`]).
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Relation name (also used as the prefix of the lineage symbols).
    pub name: String,
    /// Number of tuples to generate.
    pub tuples: usize,
    /// Number of distinct join-key values.
    pub distinct_keys: usize,
    /// Average interval duration (chronons).
    pub avg_duration: i64,
    /// Average gap between consecutive intervals of the same fact.
    pub avg_gap: i64,
    /// RNG seed (generation is fully deterministic given the config).
    pub seed: u64,
}

impl GeneratorConfig {
    /// A reasonable default configuration for `tuples` tuples.
    #[must_use]
    pub fn new(name: &str, tuples: usize) -> Self {
        Self {
            name: name.to_owned(),
            tuples,
            distinct_keys: (tuples / 20).max(1),
            avg_duration: 50,
            avg_gap: 10,
            seed: 42,
        }
    }

    /// Overrides the number of distinct join-key values.
    #[must_use]
    pub fn with_distinct_keys(mut self, distinct_keys: usize) -> Self {
        self.distinct_keys = distinct_keys.max(1);
        self
    }

    /// Overrides the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Appends `count` tuples for the fact `facts` to `rel`, walking the
/// timeline forward so that the per-fact intervals never overlap (the
/// duplicate-free TP constraint).
fn push_fact_history(
    rel: &mut TpRelation,
    facts: Vec<Value>,
    count: usize,
    rng: &mut StdRng,
    avg_duration: i64,
    avg_gap: i64,
    next_symbol: &mut u64,
) {
    let mut cursor: i64 = rng.random_range(0..avg_duration * 4 + 1);
    for _ in 0..count {
        let duration = rng.random_range(1..=avg_duration.max(1) * 2);
        let gap = rng.random_range(0..=avg_gap.max(0) * 2);
        let start = cursor + gap;
        let end = start + duration;
        cursor = end;
        let prob = rng.random_range(0.05..1.0);
        let lineage = Lineage::var(tpdb_lineage::VarId(
            u32::try_from(*next_symbol).expect("variable id overflow"),
        ));
        *next_symbol += 1;
        rel.push(TpTuple::new(
            facts.clone(),
            lineage,
            Interval::new(start, end),
            prob,
        ))
        .expect("generated tuples are schema-valid");
    }
}

/// Generates a single-key-column relation with uniformly distributed join
/// keys. Facts are `(Key: INT)`; per-key interval histories never overlap.
#[must_use]
pub fn uniform(config: &GeneratorConfig) -> TpRelation {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut rel = TpRelation::new(&config.name, Schema::tp(&[("Key", DataType::Int)]));
    let mut next_symbol: u64 = (config.seed % 400) * 10_000_000;
    if config.tuples == 0 {
        return rel;
    }
    // Distribute tuples (almost) evenly over the keys.
    let per_key = config.tuples / config.distinct_keys;
    let remainder = config.tuples % config.distinct_keys;
    for key in 0..config.distinct_keys {
        let count = per_key + usize::from(key < remainder);
        if count == 0 {
            continue;
        }
        push_fact_history(
            &mut rel,
            vec![Value::Int(key as i64)],
            count,
            &mut rng,
            config.avg_duration,
            config.avg_gap,
            &mut next_symbol,
        );
    }
    rel
}

/// Generates a single-key-column relation whose join keys follow a Zipf
/// distribution with exponent `skew` (1.0 ≈ classic Zipf): a few keys own
/// most of the tuples, producing heavily skewed join fan-outs.
#[must_use]
pub fn zipf(config: &GeneratorConfig, skew: f64) -> TpRelation {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut rel = TpRelation::new(&config.name, Schema::tp(&[("Key", DataType::Int)]));
    let mut next_symbol: u64 = (config.seed % 400) * 10_000_000 + 5_000_000;
    if config.tuples == 0 {
        return rel;
    }
    // Zipf weights per key.
    let weights: Vec<f64> = (1..=config.distinct_keys)
        .map(|k| 1.0 / (k as f64).powf(skew))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut counts: Vec<usize> = weights
        .iter()
        .map(|w| ((w / total) * config.tuples as f64).floor() as usize)
        .collect();
    let assigned: usize = counts.iter().sum();
    // distribute the rounding remainder to the heaviest keys
    for i in 0..(config.tuples - assigned) {
        counts[i % config.distinct_keys] += 1;
    }
    for (key, count) in counts.into_iter().enumerate() {
        if count == 0 {
            continue;
        }
        push_fact_history(
            &mut rel,
            vec![Value::Int(key as i64)],
            count,
            &mut rng,
            config.avg_duration,
            config.avg_gap,
            &mut next_symbol,
        );
    }
    rel
}

/// Generates a **Webkit-like** dataset pair: file-change histories with many
/// distinct join values (one per file, ≈ 20 versions each), non-overlapping
/// version intervals per file and a selective equi-join on the file id.
///
/// Returns the positive and negative relation of the experiments (schema
/// `(Key: INT)` each, the file id), with disjoint lineage variable ranges.
#[must_use]
pub fn webkit_like(tuples: usize, seed: u64) -> (TpRelation, TpRelation) {
    let keys = (tuples / 20).max(1);
    let r = uniform(&GeneratorConfig {
        name: "webkit_r".to_owned(),
        tuples,
        distinct_keys: keys,
        avg_duration: 80,
        avg_gap: 5,
        seed,
    });
    let s = uniform(&GeneratorConfig {
        name: "webkit_s".to_owned(),
        tuples,
        distinct_keys: keys,
        avg_duration: 80,
        avg_gap: 5,
        seed: seed.wrapping_add(1),
    });
    (r, s)
}

/// Generates a **Meteo-like** dataset pair: station measurements with very
/// few distinct join values (metrics) drawn uniformly — the non-selective
/// workload of the paper. Schema: `(Station: INT, Metric: INT)`, join on
/// `Metric`.
#[must_use]
pub fn meteo_like(tuples: usize, seed: u64) -> (TpRelation, TpRelation) {
    (
        meteo_relation("meteo_r", tuples, seed, 0),
        meteo_relation("meteo_s", tuples, seed.wrapping_add(1), 500_000_000),
    )
}

fn meteo_relation(name: &str, tuples: usize, seed: u64, symbol_offset: u64) -> TpRelation {
    const METRICS: usize = 40;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rel = TpRelation::new(
        name,
        Schema::tp(&[("Station", DataType::Int), ("Metric", DataType::Int)]),
    );
    if tuples == 0 {
        return rel;
    }
    let stations = (tuples / 400).max(1);
    let facts = stations * METRICS;
    let per_fact = (tuples / facts).max(1);
    let mut next_symbol: u64 = symbol_offset + 100_000_000;
    let mut emitted = 0usize;
    'outer: for station in 0..stations {
        for metric in 0..METRICS {
            let count = per_fact.min(tuples - emitted);
            if count == 0 {
                break 'outer;
            }
            push_fact_history(
                &mut rel,
                vec![Value::Int(station as i64), Value::Int(metric as i64)],
                count,
                &mut rng,
                20,
                5,
                &mut next_symbol,
            );
            emitted += count;
        }
    }
    // top up to the exact requested cardinality with extra stations
    let mut extra_station = stations as i64;
    while emitted < tuples {
        let count = (tuples - emitted).min(per_fact);
        let metric = (emitted % METRICS) as i64;
        push_fact_history(
            &mut rel,
            vec![Value::Int(extra_station), Value::Int(metric)],
            count,
            &mut rng,
            20,
            5,
            &mut next_symbol,
        );
        emitted += count;
        extra_station += 1;
    }
    rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdb_storage::check_duplicate_free;

    #[test]
    fn uniform_generates_requested_cardinality() {
        let rel = uniform(&GeneratorConfig::new("u", 1000));
        assert_eq!(rel.len(), 1000);
        assert!(check_duplicate_free(&rel).is_empty());
        // probabilities are valid
        assert!(rel.iter().all(|t| (0.0..=1.0).contains(&t.probability())));
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let a = uniform(&GeneratorConfig::new("u", 500).with_seed(7));
        let b = uniform(&GeneratorConfig::new("u", 500).with_seed(7));
        let c = uniform(&GeneratorConfig::new("u", 500).with_seed(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_respects_distinct_keys() {
        let rel = uniform(&GeneratorConfig::new("u", 600).with_distinct_keys(30));
        assert_eq!(rel.distinct_values(0).len(), 30);
    }

    #[test]
    fn zipf_skews_key_frequencies() {
        let rel = zipf(&GeneratorConfig::new("z", 2000).with_distinct_keys(50), 1.2);
        assert_eq!(rel.len(), 2000);
        assert!(check_duplicate_free(&rel).is_empty());
        // key 0 must own far more tuples than key 49
        let count = |k: i64| rel.iter().filter(|t| t.fact(0) == &Value::Int(k)).count();
        assert!(count(0) > 5 * count(49).max(1));
    }

    #[test]
    fn webkit_like_has_many_distinct_selective_keys() {
        let (r, s) = webkit_like(2000, 1);
        assert_eq!(r.len(), 2000);
        assert_eq!(s.len(), 2000);
        assert!(check_duplicate_free(&r).is_empty());
        assert!(check_duplicate_free(&s).is_empty());
        // ≈ one key per 20 tuples
        assert!(r.distinct_values(0).len() >= 90);
        // lineage variable ranges of the two relations are disjoint
        let vars_r: std::collections::BTreeSet<_> =
            r.iter().flat_map(|t| t.lineage().vars()).collect();
        let vars_s: std::collections::BTreeSet<_> =
            s.iter().flat_map(|t| t.lineage().vars()).collect();
        assert!(vars_r.is_disjoint(&vars_s));
    }

    #[test]
    fn meteo_like_has_few_distinct_join_values() {
        let (r, s) = meteo_like(2000, 1);
        assert_eq!(r.len(), 2000);
        assert_eq!(s.len(), 2000);
        assert!(check_duplicate_free(&r).is_empty());
        assert!(check_duplicate_free(&s).is_empty());
        // the join column (Metric) has at most 40 distinct values
        assert!(r.distinct_values(1).len() <= 40);
        // ... which is much smaller than the relation size (non-selective θ)
        assert!(r.distinct_values(1).len() * 10 < r.len());
        let vars_r: std::collections::BTreeSet<_> =
            r.iter().flat_map(|t| t.lineage().vars()).collect();
        let vars_s: std::collections::BTreeSet<_> =
            s.iter().flat_map(|t| t.lineage().vars()).collect();
        assert!(vars_r.is_disjoint(&vars_s));
    }

    #[test]
    fn zero_tuples_is_fine() {
        assert_eq!(uniform(&GeneratorConfig::new("u", 0)).len(), 0);
        let (r, s) = meteo_like(0, 3);
        assert!(r.is_empty() && s.is_empty());
    }
}
