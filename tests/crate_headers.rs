//! The workspace's crate-header policy: every crate root forbids `unsafe`
//! and warns on missing docs, every engine crate denies the lints that
//! state its library rules (`clippy.toml`'s disallowed methods and types,
//! console output; panics too in `tpdb-core`, `tpdb-lineage`, `tpdb-query`
//! and `tpdb-storage`), and every manifest opts into `[workspace.lints]`. A new
//! crate that skips any of these fails here, not in review.
//!
//! `unsafe_code` stays a per-crate `forbid` rather than a workspace lint:
//! integration tests such as `output_allocations.rs` install a counting
//! `GlobalAlloc`, which needs `unsafe impl`.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The crate that may print, time and touch the filesystem by design.
const MEASUREMENT_CRATE: &str = "tpdb-bench";

/// Lints every engine crate root denies.
const ENGINE_LINTS: [&str; 4] = [
    "clippy::disallowed_methods",
    "clippy::disallowed_types",
    "clippy::print_stdout",
    "clippy::print_stderr",
];

/// Crates whose library code must return errors instead of panicking.
const PANIC_FREE_CRATES: [&str; 4] = ["tpdb-core", "tpdb-lineage", "tpdb-query", "tpdb-storage"];

/// Lints the panic-free crate roots deny on top of [`ENGINE_LINTS`].
const PANIC_LINTS: [&str; 4] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
];

struct Crate {
    name: String,
    dir: PathBuf,
}

/// The umbrella package plus every crate under `crates/`.
fn workspace_crates() -> Vec<Crate> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates = vec![Crate {
        name: "tpdb".to_owned(),
        dir: root.to_path_buf(),
    }];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let dir = entry.expect("crates/ entry").path();
        if dir.join("Cargo.toml").is_file() {
            let name = dir.file_name().unwrap().to_string_lossy().into_owned();
            crates.push(Crate { name, dir });
        }
    }
    crates.sort_by(|a, b| a.name.cmp(&b.name));
    assert!(
        crates.len() >= 9,
        "expected the umbrella plus the crates under crates/"
    );
    crates
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The lint names of every `#![<level>(...)]` inner attribute in `source`,
/// however rustfmt wrapped them.
fn inner_attr_lints(source: &str, level: &str) -> BTreeSet<String> {
    let open = format!("#![{level}(");
    let mut lints = BTreeSet::new();
    let mut rest = source;
    while let Some(at) = rest.find(&open) {
        let body = &rest[at + open.len()..];
        let end = body.find(")]").expect("inner attribute is closed");
        lints.extend(
            body[..end]
                .split(',')
                .map(str::trim)
                .filter(|l| !l.is_empty())
                .map(str::to_owned),
        );
        rest = &body[end..];
    }
    lints
}

#[test]
fn every_crate_root_forbids_unsafe_and_warns_on_missing_docs() {
    for krate in workspace_crates() {
        let lib = read(&krate.dir.join("src/lib.rs"));
        assert!(
            inner_attr_lints(&lib, "forbid").contains("unsafe_code"),
            "{}: src/lib.rs lacks #![forbid(unsafe_code)]",
            krate.name
        );
        assert!(
            inner_attr_lints(&lib, "warn").contains("missing_docs"),
            "{}: src/lib.rs lacks #![warn(missing_docs)]",
            krate.name
        );
    }
}

#[test]
fn every_engine_crate_root_denies_the_library_rules() {
    let mut panic_free = 0;
    for krate in workspace_crates() {
        if krate.name == MEASUREMENT_CRATE {
            continue;
        }
        let denied = inner_attr_lints(&read(&krate.dir.join("src/lib.rs")), "deny");
        let mut required = ENGINE_LINTS.to_vec();
        if PANIC_FREE_CRATES.contains(&krate.name.as_str()) {
            required.extend(PANIC_LINTS);
            panic_free += 1;
        }
        for lint in required {
            assert!(
                denied.contains(lint),
                "{}: src/lib.rs does not #![deny({lint})]",
                krate.name
            );
        }
    }
    assert_eq!(
        panic_free,
        PANIC_FREE_CRATES.len(),
        "a panic-free crate is missing"
    );
}

#[test]
fn every_manifest_opts_into_the_workspace_lints() {
    for krate in workspace_crates() {
        let manifest = read(&krate.dir.join("Cargo.toml"));
        let mut lines = manifest.lines().map(str::trim);
        let opted_in = lines.by_ref().any(|l| l == "[lints]")
            && lines.find(|l| !l.is_empty()) == Some("workspace = true");
        assert!(
            opted_in,
            "{}: Cargo.toml lacks `[lints] workspace = true`",
            krate.name
        );
    }
}
