//! Integration test: the running example of the paper (Fig. 1) end to end,
//! through the umbrella crate and through the session API.

use tpdb::prelude::*;

/// The seven answer tuples of Fig. 1b, as (Name, Hotel, Ts, Te, probability).
const EXPECTED: [(&str, Option<&str>, i64, i64, f64); 7] = [
    ("Ann", None, 2, 4, 0.70),
    ("Ann", Some("hotel1"), 4, 6, 0.49),
    ("Ann", Some("hotel2"), 5, 8, 0.42),
    ("Ann", None, 4, 5, 0.21),
    ("Ann", None, 5, 6, 0.084),
    ("Ann", None, 6, 8, 0.28),
    ("Jim", None, 7, 10, 0.80),
];

fn check_result(result: &TpRelation) {
    assert_eq!(result.len(), EXPECTED.len());
    for (name, hotel, ts, te, p) in EXPECTED {
        let found = result.iter().find(|t| {
            t.fact(0) == &Value::str(name)
                && t.interval() == Interval::new(ts, te)
                && match hotel {
                    Some(h) => t.fact(2) == &Value::str(h),
                    None => t.fact(2).is_null(),
                }
        });
        let tuple = found
            .unwrap_or_else(|| panic!("missing expected tuple ({name}, {hotel:?}, [{ts},{te}))"));
        assert!(
            (tuple.probability() - p).abs() < 1e-9,
            "probability mismatch for ({name}, {hotel:?}, [{ts},{te})): expected {p}, got {}",
            tuple.probability()
        );
    }
}

#[test]
fn left_outer_join_via_library_api() {
    let (a, b) = tpdb::datagen::booking_example();
    let theta = ThetaCondition::column_equals("Loc", "Loc");
    let result = tp_left_outer_join(&a, &b, &theta).unwrap();
    check_result(&result);
}

#[test]
fn left_outer_join_via_session_nj_and_ta() {
    let (a, b) = tpdb::datagen::booking_example();
    let mut catalog = Catalog::new();
    catalog.register(a).unwrap();
    catalog.register(b).unwrap();
    let session = Session::new(catalog);

    for strategy in ["NJ", "TA"] {
        let q = format!("SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc STRATEGY {strategy}");
        // materializing execution and a drained streaming cursor agree
        let result = session.execute(&q).unwrap();
        check_result(&result);
        let streamed = session.query(&q).unwrap().collect().unwrap();
        check_result(&streamed);
    }
}

#[test]
fn window_sets_match_fig_2() {
    let (a, b) = tpdb::datagen::booking_example();
    let theta = ThetaCondition::column_equals("Loc", "Loc");
    let wuon = lawan(&lawau(&overlapping_windows(&a, &b, &theta).unwrap(), &a));

    // Fig. 2: 2 unmatched, 2 overlapping, 3 negating windows.
    assert_eq!(
        wuon.iter()
            .filter(|w| w.kind == WindowKind::Unmatched)
            .count(),
        2
    );
    assert_eq!(
        wuon.iter()
            .filter(|w| w.kind == WindowKind::Overlapping)
            .count(),
        2
    );
    assert_eq!(
        wuon.iter()
            .filter(|w| w.kind == WindowKind::Negating)
            .count(),
        3
    );

    // The negating window over [5,6) lists hotel1 (b3) and hotel2 (b2),
    // in activation order: λs = b3 ∨ b2.
    let w6 = wuon
        .iter()
        .find(|w| w.kind == WindowKind::Negating && w.interval == Interval::new(5, 6))
        .unwrap();
    let hotels: Vec<&Value> = w6
        .span
        .of(&wuon.spans)
        .iter()
        .map(|&si| b.tuple(si as usize).fact(0))
        .collect();
    assert_eq!(hotels, [&Value::str("hotel1"), &Value::str("hotel2")]);
}

#[test]
fn anti_join_is_the_null_padded_part_of_the_left_outer_join() {
    let (a, b) = tpdb::datagen::booking_example();
    let theta = ThetaCondition::column_equals("Loc", "Loc");
    let left = tp_left_outer_join(&a, &b, &theta).unwrap();
    let anti = tp_anti_join(&a, &b, &theta).unwrap();

    let padded: Vec<_> = left.iter().filter(|t| t.fact(2).is_null()).collect();
    assert_eq!(padded.len(), anti.len());
    for t in anti.iter() {
        let twin = padded
            .iter()
            .find(|p| p.interval() == t.interval() && p.fact(0) == t.fact(0))
            .unwrap();
        assert!((twin.probability() - t.probability()).abs() < 1e-12);
    }
}
