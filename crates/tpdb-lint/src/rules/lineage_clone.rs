//! `no-lineage-clone-in-streams`: hot stream modules move interned
//! `LineageRef` ids; they must not build or clone legacy `Lineage` trees.

use crate::{pattern, Diagnostic, Rule, SourceFile};

/// The hot streaming modules of `tpdb-core`. PR 6 interned the lineage
/// layer precisely so these paths stop cloning formula trees; a clone that
/// sneaks back in is a silent performance regression the compiler cannot
/// flag.
const STREAM_MODULES: &[&str] = &[
    "crates/tpdb-core/src/overlap.rs",
    "crates/tpdb-core/src/lawau.rs",
    "crates/tpdb-core/src/lawan.rs",
    "crates/tpdb-core/src/stream.rs",
    "crates/tpdb-core/src/setops.rs",
];

/// Identifier fragments that mark a value as carrying lineage.
const LINEAGE_RECEIVERS: &[&str] = &["lineage", "lambda", "lin"];

/// See module docs.
pub struct NoLineageCloneInStreams;

impl Rule for NoLineageCloneInStreams {
    fn id(&self) -> &'static str {
        "no-lineage-clone-in-streams"
    }

    fn description(&self) -> &'static str {
        "hot stream modules move interned LineageRef ids — no legacy Lineage construction, \
         lineage clones or to_lineage outside the sanctioned output-formation boundary"
    }

    fn applies(&self, file: &SourceFile) -> bool {
        STREAM_MODULES.contains(&file.rel_path.as_str())
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let tokens = &file.tokens;
        for i in 0..tokens.len() {
            if file.in_test_code(i) {
                continue;
            }
            let t = &tokens[i];
            if t.is_ident("Lineage") && tokens.get(i + 1).is_some_and(|n| n.is_punct("::")) {
                out.push(self.diag(
                    file,
                    i,
                    "legacy `Lineage` tree constructed in a hot stream module — build the \
                     formula in the `LineageInterner` arena and move `LineageRef` ids",
                ));
            } else if t.is_ident("to_lineage") {
                out.push(self.diag(
                    file,
                    i,
                    "conversion to a legacy `Lineage` tree in a hot stream module — convert \
                     only at the sanctioned output-formation boundary (mark that boundary \
                     with `// tpdb-lint: allow(no-lineage-clone-in-streams)`)",
                ));
            } else if pattern::method_call(tokens, i, "clone") {
                if let Some(receiver) = pattern::receiver_ident(tokens, i) {
                    let lower = receiver.to_lowercase();
                    if LINEAGE_RECEIVERS.iter().any(|frag| lower.contains(frag)) {
                        out.push(self.diag(
                            file,
                            i + 1,
                            "lineage value cloned in a hot stream module — move the interned \
                             `LineageRef` (`Copy`) instead of cloning a formula tree",
                        ));
                    }
                }
            }
        }
    }
}

impl NoLineageCloneInStreams {
    fn diag(&self, file: &SourceFile, token: usize, message: &str) -> Diagnostic {
        let t = &file.tokens[token];
        Diagnostic {
            rule: self.id(),
            path: file.rel_path.clone(),
            line: t.line,
            col: t.col,
            message: message.to_owned(),
        }
    }
}
