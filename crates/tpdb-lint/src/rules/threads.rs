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
//! is confined to `crates/tpdb-core/src/morsel.rs`, the morsel scheduler's
//! `scope_workers` helper. The engine's parallelism is morsel-driven work
//! stealing; an operator that scoped its own threads would bypass the
//! shared injector (re-introducing static-partition skew) and scatter the
//! crate's thread topology across modules. Keeping one creation point
//! keeps it auditable — exactly the argument for the pool exemption, moved
//! with the code it protects.

use crate::{pattern, Diagnostic, Rule, SourceFile};

/// The one module sanctioned to call `thread::spawn`: the server's spawn
/// site, whose contract is that every returned handle is joined by
/// shutdown at the latest (see module docs).
const SANCTIONED_POOL_MODULE: &str = "crates/tpdb-server/src/pool.rs";

/// The one `tpdb-core` module sanctioned to call `thread::scope`: the
/// morsel scheduler, whose `scope_workers` is the crate's single thread
/// creation point (see module docs).
const SANCTIONED_SCHEDULER_MODULE: &str = "crates/tpdb-core/src/morsel.rs";

/// The source tree where `thread::scope` is restricted to
/// [`SANCTIONED_SCHEDULER_MODULE`].
const CORE_SRC_TREE: &str = "crates/tpdb-core/src/";

/// See module docs.
pub struct NoUnscopedThreads;

impl Rule for NoUnscopedThreads {
    fn id(&self) -> &'static str {
        "no-unscoped-threads"
    }

    fn description(&self) -> &'static str {
        "std::thread::spawn is forbidden — use thread::scope so workers are joined and \
         borrows are bounded; inside tpdb-core even thread::scope belongs to the morsel \
         scheduler only"
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
                && file.rel_path != SANCTIONED_SCHEDULER_MODULE
                && pattern::path_pair(tokens, i, "thread", "scope")
            {
                let t = &tokens[i];
                out.push(Diagnostic {
                    rule: self.id(),
                    path: file.rel_path.clone(),
                    line: t.line,
                    col: t.col,
                    message: "`thread::scope` outside the morsel scheduler — tpdb-core \
                              workers are born in `morsel::scope_workers` only; route \
                              parallel work through the shared injector"
                        .to_owned(),
                });
            }
        }
    }
}
