//! pangea-lint: in-house static analysis for the Pangea workspace.
//!
//! Checks cross-cutting project invariants the compiler cannot see —
//! each one is a bug class that actually shipped (or nearly shipped) in
//! an earlier PR, promoted to a machine-checked rule. Zero external
//! dependencies: a small hand-rolled Rust lexer (`lexer`) feeds a
//! token-pattern rule engine (`rules`). Run it with
//! `cargo run -p pangea-lint`; CI gates on a clean exit.
//!
//! Suppress a diagnostic with `// lint:allow(<rule>)` on the flagged
//! line or the line directly above it. Allows are deliberate,
//! reviewable artifacts — each should carry a justification comment.
//! See DESIGN.md §2j for the invariant catalogue and allow policy.

pub mod lexer;
pub mod rules;

pub use rules::{Diagnostic, OpcodeCtx, RULE_NAMES};

use lexer::{lex, test_mask, Tok};

/// A source file prepared for linting: tokens, allow directives, and a
/// per-token "inside `#[cfg(test)]` / `#[test]`" mask.
pub struct LintedFile {
    /// Workspace-relative path with forward slashes (rules match on it).
    pub rel: String,
    pub toks: Vec<Tok>,
    /// `(line, rule)` pairs from `lint:allow(...)` comments.
    pub allows: Vec<(u32, String)>,
    /// `in_test[i]` ⇔ `toks[i]` is inside a test-gated item.
    pub in_test: Vec<bool>,
}

impl LintedFile {
    pub fn parse(rel: &str, src: &str) -> Self {
        let lexed = lex(src);
        let in_test = test_mask(&lexed.toks);
        LintedFile {
            rel: rel.to_string(),
            toks: lexed.toks,
            allows: lexed.allows,
            in_test,
        }
    }
}

/// Runs every per-file rule on `f`.
pub fn lint_file(f: &LintedFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    rules::guard_across_io(f, &mut out);
    rules::checkout_pairing(f, &mut out);
    rules::metric_name_registry(f, &mut out);
    rules::no_unwrap_in_daemon(f, &mut out);
    out
}

/// Runs per-file rules on every file plus the project-wide opcode rule,
/// returning diagnostics sorted by (file, line).
pub fn lint_project(files: &[LintedFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        out.extend(lint_file(f));
    }
    let find = |rel: &str| files.iter().find(|f| f.rel == rel);
    if let Some(proto) = find("crates/net/src/proto.rs") {
        let handlers: Vec<&LintedFile> = [
            "crates/net/src/framed.rs",
            "crates/net/src/server.rs",
            "crates/net/src/client.rs",
            "crates/coord/src/daemon.rs",
            "crates/coord/src/client.rs",
            "crates/coord/src/remote.rs",
        ]
        .iter()
        .filter_map(|r| find(r))
        .collect();
        let ctx = OpcodeCtx { proto, handlers };
        rules::opcode_coverage(&ctx, &mut out);
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}
