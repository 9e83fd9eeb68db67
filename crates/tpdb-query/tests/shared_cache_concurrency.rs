//! The shared plan cache under concurrent lookups from several threads.

use tpdb_query::PlanCache;
use tpdb_storage::Catalog;

#[test]
fn concurrent_lookups_agree_with_serial_preparation() {
    let mut c = Catalog::new();
    let (a, b) = tpdb_datagen::booking_example();
    c.register(a).unwrap();
    c.register(b).unwrap();
    let cache = PlanCache::new(512);
    let queries: Vec<String> = (0..16)
        .map(|i| format!("SELECT Name FROM a WHERE Loc = 'L{}'", i % 4))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for q in &queries {
                    let plan = cache.get_or_prepare(&c, q).unwrap();
                    assert_eq!(plan.parameters, 0);
                    assert_eq!(plan.epoch, c.schema_epoch());
                }
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(stats.entries, 4);
    assert_eq!(stats.hits + stats.misses, 64);
    // every distinct text was parsed at least once, racing prepares at
    // worst parse twice — never more than the 4 threads could race
    assert!((4..=16).contains(&(stats.misses as usize)), "{stats:?}");
}
