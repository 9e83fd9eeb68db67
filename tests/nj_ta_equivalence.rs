//! Integration test: the lineage-aware window approach (NJ) and the
//! Temporal Alignment baseline (TA) must produce identical results for every
//! TP join with negation, on randomized workloads from every generator.

use tpdb::core::{
    tp_anti_join, tp_full_outer_join, tp_inner_join, tp_left_outer_join, tp_right_outer_join,
    ThetaCondition,
};
use tpdb::storage::TpRelation;
use tpdb::ta::{
    ta_anti_join, ta_full_outer_join, ta_inner_join, ta_left_outer_join, ta_right_outer_join,
};

/// Canonical form of a join result: facts, interval and probability rounded
/// to 1e-9, sorted. (Lineage *syntax* may legitimately differ between the
/// two systems; semantics — and therefore probabilities — may not.)
fn canon(rel: &TpRelation) -> Vec<(Vec<String>, i64, i64, i64)> {
    let mut rows: Vec<(Vec<String>, i64, i64, i64)> = rel
        .iter()
        .map(|t| {
            (
                t.facts().iter().map(|v| v.to_string()).collect(),
                t.interval().start(),
                t.interval().end(),
                (t.probability() * 1e9).round() as i64,
            )
        })
        .collect();
    rows.sort();
    rows
}

fn assert_equivalent(r: &TpRelation, s: &TpRelation, theta: &ThetaCondition, label: &str) {
    let pairs: [(&str, TpRelation, TpRelation); 5] = [
        (
            "inner",
            tp_inner_join(r, s, theta).unwrap(),
            ta_inner_join(r, s, theta).unwrap(),
        ),
        (
            "anti",
            tp_anti_join(r, s, theta).unwrap(),
            ta_anti_join(r, s, theta).unwrap(),
        ),
        (
            "left outer",
            tp_left_outer_join(r, s, theta).unwrap(),
            ta_left_outer_join(r, s, theta).unwrap(),
        ),
        (
            "right outer",
            tp_right_outer_join(r, s, theta).unwrap(),
            ta_right_outer_join(r, s, theta).unwrap(),
        ),
        (
            "full outer",
            tp_full_outer_join(r, s, theta).unwrap(),
            ta_full_outer_join(r, s, theta).unwrap(),
        ),
    ];
    for (kind, nj, ta) in pairs {
        assert_eq!(
            canon(&nj),
            canon(&ta),
            "NJ and TA disagree on the {kind} join of the {label} workload"
        );
    }
}

#[test]
fn equivalence_on_webkit_like_workloads() {
    for seed in [1, 2, 3] {
        let (r, s) = tpdb::datagen::webkit_like(400, seed);
        let theta = ThetaCondition::column_equals("Key", "Key");
        assert_equivalent(&r, &s, &theta, &format!("webkit-like (seed {seed})"));
    }
}

#[test]
fn equivalence_on_meteo_like_workloads() {
    for seed in [1, 2] {
        let (r, s) = tpdb::datagen::meteo_like(300, seed);
        let theta = ThetaCondition::column_equals("Metric", "Metric");
        assert_equivalent(&r, &s, &theta, &format!("meteo-like (seed {seed})"));
    }
}

#[test]
fn equivalence_on_skewed_workloads() {
    use tpdb::datagen::{zipf, GeneratorConfig};
    let r = zipf(
        &GeneratorConfig::new("zr", 300)
            .with_seed(11)
            .with_distinct_keys(12),
        1.1,
    );
    let s = zipf(
        &GeneratorConfig::new("zs", 300)
            .with_seed(12)
            .with_distinct_keys(12),
        1.1,
    );
    let theta = ThetaCondition::column_equals("Key", "Key");
    assert_equivalent(&r, &s, &theta, "zipf");
}

#[test]
fn equivalence_under_non_selective_theta() {
    // θ = true: every temporally overlapping pair matches — the worst case
    // for both systems, and the one where window grouping is stressed most.
    let (r, s) = tpdb::datagen::webkit_like(120, 5);
    let theta = ThetaCondition::always();
    assert_equivalent(&r, &s, &theta, "θ=true");
}

#[test]
fn equivalence_with_asymmetric_cardinalities() {
    let (r, _) = tpdb::datagen::webkit_like(300, 8);
    let (_, s) = tpdb::datagen::webkit_like(60, 9);
    let theta = ThetaCondition::column_equals("Key", "Key");
    assert_equivalent(&r, &s, &theta, "asymmetric");
}

/// A negative tuple whose lineage is a constant: `⊥` exists in no possible
/// world and `⊤` in every one, but either is a θ-matching tuple over its
/// interval, so LAWAU counts that interval as covered and LAWAN must emit a
/// negating window over it — alone, and next to a variable. Under `⊥` the
/// anti join keeps `x0` over [2,5) at `p(x0)`, the possible-worlds answer;
/// under `⊤` it keeps a row of probability 0. `EXCEPT` (the anti join under
/// all-column equality) agrees with TA's anti join.
#[test]
fn equivalence_with_constant_negative_lineages() {
    use tpdb::core::{all_columns_equal, tp_difference, tp_join, TpJoinKind};
    use tpdb::lineage::{Lineage, VarId};
    use tpdb::storage::{DataType, Schema, TpTuple, Value};
    use tpdb::temporal::Interval;
    let relation = |name: &str, rows: &[(Lineage, i64, i64, f64)]| {
        let mut rel = TpRelation::new(name, Schema::tp(&[("k", DataType::Int)]));
        for (lineage, from, to, p) in rows {
            let interval = Interval::new(*from, *to);
            let tuple = TpTuple::new(vec![Value::Int(1)], lineage.clone(), interval, *p);
            rel.push(tuple).unwrap();
        }
        rel
    };
    let r = relation("r", &[(Lineage::var(VarId(0)), 0, 10, 0.5)]);
    let theta = ThetaCondition::column_equals("k", "k");
    for (constant, p) in [(Lineage::fls(), 0.0), (Lineage::tru(), 1.0)] {
        let alone = relation("s", &[(constant.clone(), 2, 5, p)]);
        let beside = relation(
            "s",
            &[
                (constant.clone(), 2, 5, p),
                (Lineage::var(VarId(1)), 4, 8, 0.4),
            ],
        );
        for s in [&alone, &beside] {
            let label = format!("{constant} negative ({} tuples)", s.len());
            assert_equivalent(&r, s, &theta, &label);
            let except = tp_difference(&r, s).unwrap();
            let anti = ta_anti_join(&r, s, &all_columns_equal(&r, s).unwrap()).unwrap();
            assert_eq!(canon(&except), canon(&anti), "EXCEPT, {label}");
        }
        let anti = tp_join(&r, &alone, &theta, TpJoinKind::Anti).unwrap();
        let over = |from, to| {
            let row = anti
                .iter()
                .find(|t| t.interval() == Interval::new(from, to));
            row.map(|t| t.probability())
        };
        assert_eq!(anti.len(), 3, "{constant}: {anti}");
        assert_eq!(over(2, 5), Some(0.5 * (1.0 - p)), "{constant}");
    }
}

/// Order-independent checksum of a result's
/// `(facts, interval, probability.to_bits())` rows: FNV-1a per row, summed.
fn bits_checksum(rel: &TpRelation) -> (usize, u64) {
    fn fnv(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    let sum = rel
        .iter()
        .map(|t| {
            let mut h = 0xcbf2_9ce4_8422_2325;
            for v in t.facts() {
                h = fnv(fnv(h, v.to_string().as_bytes()), &[0xff]);
            }
            h = fnv(h, &t.interval().start().to_le_bytes());
            h = fnv(h, &t.interval().end().to_le_bytes());
            fnv(h, &t.probability().to_bits().to_le_bytes())
        })
        .fold(0u64, u64::wrapping_add);
    (rel.len(), sum)
}

/// Pins output probabilities *bit for bit across commits* (the other
/// oracles compare two paths inside one binary). The constants were computed
/// at the commit before read-once pricing landed; a change that moves one of
/// them changed an answer, not just a code path.
#[test]
fn golden_probability_bits_are_pinned_across_commits() {
    let meteo = tpdb::datagen::meteo_like(300, 7);
    let webkit = tpdb::datagen::webkit_like(600, 7);
    let workloads = [
        (
            "meteo",
            &meteo,
            ThetaCondition::column_equals("Metric", "Metric"),
        ),
        (
            "webkit",
            &webkit,
            ThetaCondition::column_equals("Key", "Key"),
        ),
    ];
    let mut got = Vec::new();
    for (label, (r, s), theta) in &workloads {
        got.push((
            format!("{label} left"),
            bits_checksum(&tp_left_outer_join(r, s, theta).unwrap()),
        ));
        got.push((
            format!("{label} full"),
            bits_checksum(&tp_full_outer_join(r, s, theta).unwrap()),
        ));
        got.push((
            format!("{label} anti"),
            bits_checksum(&tp_anti_join(r, s, theta).unwrap()),
        ));
    }
    // (r ∪ s) − r: shared variables, so this one prices through Shannon
    // expansion; the catalog engine supplies the base marginals.
    let mut catalog = tpdb::storage::Catalog::new();
    catalog.register(meteo.0.clone()).unwrap();
    catalog.register(meteo.1.clone()).unwrap();
    let chain = tpdb::prelude::Session::new(catalog)
        .execute("(SELECT * FROM meteo_r UNION SELECT * FROM meteo_s) EXCEPT SELECT * FROM meteo_r")
        .unwrap();
    got.push(("meteo (r ∪ s) − r".to_owned(), bits_checksum(&chain)));

    let expected: [(&str, (usize, u64)); 7] = [
        ("meteo left", (1102, 15_642_589_732_705_347_820)),
        ("meteo full", (1799, 8_350_241_503_033_750_227)),
        ("meteo anti", (678, 1_130_367_718_183_760_042)),
        ("webkit left", (2536, 694_698_940_042_601_221)),
        ("webkit full", (4113, 14_082_959_367_934_354_091)),
        ("webkit anti", (1532, 1_935_535_375_009_231_908)),
        ("meteo (r ∪ s) − r", (918, 15_897_236_887_087_416_106)),
    ];
    for ((label, checksum), (expected_label, expected_checksum)) in got.iter().zip(expected) {
        assert_eq!(label, expected_label);
        assert_eq!(
            *checksum, expected_checksum,
            "{label}: (rows, checksum) moved"
        );
    }
    assert_eq!(got.len(), expected.len());
}
