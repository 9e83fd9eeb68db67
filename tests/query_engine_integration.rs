//! Integration test: the session API on generated workloads — parsing,
//! preparing, parameter binding, cursor streaming, strategy selection and
//! result consistency across the whole stack (datagen → storage → query →
//! core/ta).

use tpdb::core::ThetaCondition;
use tpdb::query::{parse_query, LogicalPlan, Session};
use tpdb::storage::{Catalog, Value};

fn session_with_webkit(n: usize) -> Session {
    let (r, s) = tpdb::datagen::webkit_like(n, 3);
    let mut catalog = Catalog::new();
    catalog.register(r).unwrap();
    catalog.register(s).unwrap();
    Session::new(catalog)
}

#[test]
fn textual_query_equals_programmatic_plan() {
    let session = session_with_webkit(400);
    let text = "SELECT * FROM webkit_r TP ANTI JOIN webkit_s ON webkit_r.Key = webkit_s.Key";
    let via_text = session.execute(text).unwrap();

    let plan = LogicalPlan::scan("webkit_r").tp_join(
        LogicalPlan::scan("webkit_s"),
        ThetaCondition::column_equals("Key", "Key"),
        tpdb::core::TpJoinKind::Anti,
        tpdb::query::JoinStrategy::Nj,
    );
    let via_plan = session.run(&plan).unwrap();

    assert_eq!(via_text.len(), via_plan.len());
    assert!(parse_query(text).is_ok());
}

#[test]
fn strategy_choice_does_not_change_the_answer() {
    let session = session_with_webkit(300);
    // total probability mass (probability × duration) must agree
    let mass = |rel: &tpdb::storage::TpRelation| -> f64 {
        rel.iter()
            .map(|t| t.probability() * t.interval().duration() as f64)
            .sum()
    };
    for kind in ["LEFT", "FULL OUTER"] {
        let run = |strategy: &str| {
            session
                .execute(&format!(
                    "SELECT * FROM webkit_r TP {kind} JOIN webkit_s \
                     ON webkit_r.Key = webkit_s.Key STRATEGY {strategy}"
                ))
                .unwrap()
        };
        let (nj, ta) = (run("NJ"), run("TA"));
        assert_eq!(nj.len(), ta.len(), "{kind}");
        assert!((mass(&nj) - mass(&ta)).abs() < 1e-6, "{kind}");
    }
}

#[test]
fn where_clause_filters_join_output() {
    let session = session_with_webkit(200);
    let all = session
        .execute("SELECT * FROM webkit_r TP LEFT JOIN webkit_s ON webkit_r.Key = webkit_s.Key")
        .unwrap();
    let filtered = session
        .execute("SELECT * FROM webkit_r TP LEFT JOIN webkit_s ON webkit_r.Key = webkit_s.Key WHERE Key = 0")
        .unwrap();
    assert!(filtered.len() < all.len());
    assert!(filtered.iter().all(|t| t.fact(0) == &Value::Int(0)));

    // the same filter as a prepared statement with a bound parameter
    let stmt = session
        .prepare("SELECT * FROM webkit_r TP LEFT JOIN webkit_s ON webkit_r.Key = webkit_s.Key WHERE Key = $1")
        .unwrap();
    let bound = stmt.execute(&[Value::Int(0)]).unwrap();
    assert_eq!(bound, filtered);
}

#[test]
fn cursor_streams_the_same_tuples_execution_materializes() {
    let session = session_with_webkit(250);
    let q = "SELECT * FROM webkit_r TP FULL OUTER JOIN webkit_s ON webkit_r.Key = webkit_s.Key";
    let materialized = session.execute(q).unwrap();
    let mut cursor = session.query(q).unwrap();
    let first = cursor.next().unwrap().unwrap();
    assert_eq!(&first, materialized.tuple(0));
    let rest = cursor.collect().unwrap();
    assert_eq!(rest.len() + 1, materialized.len());
}

#[test]
fn projection_keeps_temporal_and_probabilistic_attributes() {
    let session = session_with_webkit(200);
    let result = session
        .execute("SELECT Key FROM webkit_r TP ANTI JOIN webkit_s ON webkit_r.Key = webkit_s.Key")
        .unwrap();
    assert_eq!(result.schema().arity(), 1);
    for t in result.iter() {
        assert!((0.0..=1.0).contains(&t.probability()));
        assert!(t.interval().duration() > 0);
    }
}

#[test]
fn explain_runs_without_executing() {
    let session = session_with_webkit(100);
    let text = session
        .explain("SELECT * FROM webkit_r TP FULL OUTER JOIN webkit_s ON webkit_r.Key = webkit_s.Key STRATEGY TA")
        .unwrap();
    assert!(text.contains("⟗"));
    assert!(text.contains("strategy=TA"));
    assert!(text.contains("Plan cache:"));
}
