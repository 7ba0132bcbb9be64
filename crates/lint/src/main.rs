//! CLI: walks the workspace, runs every rule, prints diagnostics as
//! `path:line: [rule] msg`, and exits nonzero if anything fired.
//!
//! Usage: `cargo run -p pangea-lint [workspace-root]` — the root
//! defaults to the workspace this binary was built from.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pangea_lint::{lint_project, LintedFile, RULE_NAMES};

fn main() -> ExitCode {
    let root = match std::env::args().nth(1) {
        Some(arg) => PathBuf::from(arg),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."),
    };
    let root = root.canonicalize().unwrap_or(root);

    let mut files = Vec::new();
    collect(&root, &root, &mut files);
    files.sort_by(|a, b| a.rel.cmp(&b.rel));

    let diags = lint_project(&files);

    for d in &diags {
        println!("{d}");
    }
    let mut counts: Vec<(&str, usize)> = RULE_NAMES
        .iter()
        .map(|r| (*r, diags.iter().filter(|d| d.rule == *r).count()))
        .collect();
    counts.retain(|(_, n)| *n > 0);
    if diags.is_empty() {
        println!(
            "pangea-lint: clean ({} files, {} rules)",
            files.len(),
            RULE_NAMES.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("\npangea-lint: {} diagnostic(s):", diags.len());
        for (rule, n) in counts {
            println!("  {n:>4}  {rule}");
        }
        ExitCode::FAILURE
    }
}

/// Recursively collects `.rs` files under `dir`, skipping build output,
/// VCS metadata, and the lint fixtures (which are known-bad on purpose).
fn collect(root: &Path, dir: &Path, out: &mut Vec<LintedFile>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || path.ends_with("crates/lint/fixtures") {
                continue;
            }
            collect(root, &path, out);
        } else if name.ends_with(".rs") {
            let Ok(src) = std::fs::read_to_string(&path) else {
                continue;
            };
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(LintedFile::parse(&rel, &src));
        }
    }
}
