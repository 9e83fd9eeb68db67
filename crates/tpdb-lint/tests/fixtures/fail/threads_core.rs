// tpdb-lint-fixture: path=crates/tpdb-core/src/stream.rs
// tpdb-lint-expect: no-unscoped-threads:7:10

// Inside tpdb-core even thread::scope is forbidden: a statement runs on
// its caller's thread.
fn launch(xs: &mut [u64]) {
    std::thread::scope(|scope| {
        for x in xs.iter_mut() {
            scope.spawn(move || {
                *x += 1;
            });
        }
    });
}
