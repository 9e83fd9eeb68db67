//! `no-unscoped-threads`: worker threads are created with
//! `std::thread::scope`, never `std::thread::spawn`. Scoped threads cannot
//! outlive the data they borrow and cannot leak past a join point — the
//! discipline the shared-catalog server front-end (ROADMAP item 3)
//! depends on.
//!
//! One module is sanctioned to call `thread::spawn`:
//! `crates/tpdb-server/src/pool.rs`. A server's acceptor and connection
//! threads are *long-lived* — they outlive the function that starts the
//! server, which `thread::scope` cannot express. The pool module restores
//! the invariant the rule enforces by construction: every handle it
//! returns is recorded by the server and joined by shutdown at the latest,
//! and it only closes over `Arc`'d state (no borrows to outlive). Spawning
//! anywhere else in the server crate is still flagged, which keeps the
//! exemption auditable: one file to review, one place threads are born.
//!
//! Inside `tpdb-core` the rule is one notch stricter: even `thread::scope`
//! is forbidden. A statement runs on its caller's thread; concurrency lives
//! at the connection level, in the server, and an operator that scoped its
//! own threads would bring back a second execution path.

use crate::{pattern, Diagnostic, Rule, SourceFile};

/// The one module sanctioned to call `thread::spawn`: the server's spawn
/// site, whose contract is that every returned handle is joined by
/// shutdown at the latest (see module docs).
const SANCTIONED_POOL_MODULE: &str = "crates/tpdb-server/src/pool.rs";

/// The source tree where `thread::scope` is forbidden too.
const CORE_SRC_TREE: &str = "crates/tpdb-core/src/";

/// See module docs.
pub struct NoUnscopedThreads;

impl Rule for NoUnscopedThreads {
    fn id(&self) -> &'static str {
        "no-unscoped-threads"
    }

    fn description(&self) -> &'static str {
        "std::thread::spawn is forbidden — use thread::scope so workers are joined and \
         borrows are bounded; inside tpdb-core even thread::scope is forbidden"
    }

    fn applies(&self, file: &SourceFile) -> bool {
        super::in_src_tree(file) && !file.is_test_like && file.rel_path != SANCTIONED_POOL_MODULE
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let tokens = &file.tokens;
        for i in 0..tokens.len() {
            if file.in_test_code(i) {
                continue;
            }
            if pattern::path_pair(tokens, i, "thread", "spawn") {
                let t = &tokens[i];
                out.push(Diagnostic {
                    rule: self.id(),
                    path: file.rel_path.clone(),
                    line: t.line,
                    col: t.col,
                    message: "unscoped `thread::spawn` — use `thread::scope` so every worker \
                              is joined and borrowed data cannot be outlived"
                        .to_owned(),
                });
            }
            if file.rel_path.starts_with(CORE_SRC_TREE)
                && pattern::path_pair(tokens, i, "thread", "scope")
            {
                let t = &tokens[i];
                out.push(Diagnostic {
                    rule: self.id(),
                    path: file.rel_path.clone(),
                    line: t.line,
                    col: t.col,
                    message: "`thread::scope` in tpdb-core — a statement runs on its \
                              caller's thread; concurrency belongs to the server's connections"
                        .to_owned(),
                });
            }
        }
    }
}
