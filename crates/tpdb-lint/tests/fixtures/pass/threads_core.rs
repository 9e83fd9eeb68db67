// tpdb-lint-fixture: path=crates/tpdb-core/src/stream.rs

// The compliant form: tpdb-core does the work on the caller's thread.
fn launch(xs: &mut [u64]) {
    for x in xs.iter_mut() {
        *x += 1;
    }
}
