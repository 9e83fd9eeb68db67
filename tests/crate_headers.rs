//! The workspace's crate-header policy: every crate root forbids `unsafe`
//! and warns on missing docs, every engine crate denies the lints that
//! state its library rules (`clippy.toml`'s disallowed methods and types,
//! console output; panics too in `tpdb-core`, `tpdb-lineage`, `tpdb-query`
//! and `tpdb-storage`), and every manifest opts into `[workspace.lints]`. A new
//! crate that skips any of these fails here, not in review. Every
//! `ignore` attribute of a test carries its reason and the ROADMAP item that
//! fixes the defect it pins.
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

/// The Rust sources of the workspace's packages: every `.rs` file under a
/// crate's `src`, `tests`, `benches` and `examples` directories.
fn workspace_sources() -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut sources = Vec::new();
    for krate in workspace_crates() {
        for sub in ["src", "tests", "benches", "examples"] {
            walk(&krate.dir.join(sub), &mut sources);
        }
    }
    sources.sort();
    sources
}

/// The reason string of the `ignore` attribute whose text follows `rest`
/// (what comes after the attribute's name), or `None` when the attribute
/// has no `= "…"` reason.
fn ignore_reason(rest: &str) -> Option<String> {
    let rest = rest.trim_start().strip_prefix('=')?.trim_start();
    let body = rest.strip_prefix('"')?;
    let mut reason = String::new();
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                return chars
                    .as_str()
                    .trim_start()
                    .starts_with(']')
                    .then_some(reason)
            }
            // A `\` line continuation skips the line break and the next
            // line's indentation; other escapes keep the escaped character.
            '\\' => match chars.next()? {
                '\n' => chars = chars.as_str().trim_start().chars(),
                escaped => reason.push(escaped),
            },
            c => reason.push(c),
        }
    }
    None
}

/// Does `reason` name a ROADMAP item (`item <number>`)?
fn names_an_item(reason: &str) -> bool {
    reason
        .match_indices("item ")
        .any(|(at, word)| reason[at + word.len()..].starts_with(|c: char| c.is_ascii_digit()))
}

/// A test that pins a known defect may be ignored only with a reason that
/// says what fails and which ROADMAP item fixes it: the attribute reads
/// `ignore = "<what fails, measured value; ROADMAP item n>"`. A bare
/// `ignore` or one whose reason names no item fails here.
#[test]
fn every_ignored_test_names_its_reason_and_item() {
    let attribute = concat!("#[", "ignore");
    let mut ignored = 0;
    for path in workspace_sources() {
        let source = read(&path);
        for (at, _) in source.match_indices(attribute) {
            let line = source[..at].lines().count().max(1);
            let rest = &source[at + attribute.len()..];
            let reason = ignore_reason(rest).unwrap_or_else(|| {
                panic!(
                    "{}:{line}: an ignored test needs `= \"<reason; item n>\"`",
                    path.display()
                )
            });
            assert!(
                names_an_item(&reason),
                "{}:{line}: the ignore reason names no ROADMAP item: {reason:?}",
                path.display()
            );
            ignored += 1;
        }
    }
    assert!(ignored >= 1, "the scan found the pinned defects' tests");
}

#[test]
fn ignore_reasons_are_read_as_the_compiler_reads_them() {
    let reason =
        ignore_reason(" = \"fails at t=2 (\\\"x0\\\"), \\\n        ROADMAP item 1\"]\nfn f() {}");
    assert_eq!(
        reason.as_deref(),
        Some("fails at t=2 (\"x0\"), ROADMAP item 1")
    );
    assert!(names_an_item(reason.as_deref().unwrap()));
    assert_eq!(ignore_reason("]\nfn f() {}"), None);
    assert_eq!(ignore_reason(" = \"unterminated"), None);
    assert!(!names_an_item("flaky on slow hosts"));
    assert!(!names_an_item("see the item list"));
}
