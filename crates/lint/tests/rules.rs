//! Fixture-based rule tests: each rule runs over a known-bad file
//! (exact `file:line` assertions — the fixtures document their own
//! line numbers) and a known-good file (zero diagnostics).

use pangea_lint::{lint_file, lint_project, LintedFile, OpcodeCtx};

/// Diagnostics for one rule only, as `(line, ..)` pairs.
fn lines_for(f: &LintedFile, rule: &str) -> Vec<u32> {
    lint_file(f)
        .into_iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

fn fixture(rel: &str, src: &str) -> LintedFile {
    LintedFile::parse(rel, src)
}

// ---------------------------------------------------------------- guard

#[test]
fn guard_across_io_flags_all_bad_shapes() {
    let f = fixture(
        "crates/example/src/lib.rs",
        include_str!("../fixtures/guard_across_io_bad.rs"),
    );
    assert_eq!(
        lines_for(&f, "guard-across-io"),
        vec![6, 12, 18, 27, 32, 37, 42],
        "named guard, if-let scrutinee (the PR 3 shape), match scrutinee, \
         unwrap-wrapped guard, a paged scan under a guard, a page guard, \
         a push stream's send under a guard"
    );
}

#[test]
fn guard_across_io_accepts_disciplined_code() {
    let f = fixture(
        "crates/example/src/lib.rs",
        include_str!("../fixtures/guard_across_io_good.rs"),
    );
    assert_eq!(lines_for(&f, "guard-across-io"), Vec::<u32>::new());
}

/// The acceptance scenario: a scratch diff reintroducing PR 3's exact
/// bug — an `if let` over a `.lock()` chain with a client call in the
/// body — must be caught.
#[test]
fn pr3_style_scratch_diff_is_caught() {
    let scratch = r#"
impl Recovery {
    fn on_repair(&self, node: u32) {
        if let Some(hook) = self.recovery_hook.lock().as_ref() {
            self.client.call(&hook.encode(node));
        }
    }
}
"#;
    let f = fixture("crates/coord/src/remote.rs", scratch);
    assert_eq!(lines_for(&f, "guard-across-io"), vec![4]);
}

#[test]
fn guard_rule_skips_out_of_scope_paths() {
    let bad = include_str!("../fixtures/guard_across_io_bad.rs");
    for rel in ["crates/shims/parking_lot/src/lib.rs", "tests/e2e.rs"] {
        let f = fixture(rel, bad);
        assert_eq!(lines_for(&f, "guard-across-io"), Vec::<u32>::new(), "{rel}");
    }
}

// ------------------------------------------------------------- checkout

#[test]
fn checkout_pairing_flags_all_leak_shapes() {
    let f = fixture(
        "crates/example/src/lib.rs",
        include_str!("../fixtures/checkout_pairing_bad.rs"),
    );
    assert_eq!(
        lines_for(&f, "checkout-pairing"),
        vec![6, 13, 22, 27, 31],
        "`?` leak, early-return leak, never consumed, not let-bound, `?` before a hand-off"
    );
}

#[test]
fn checkout_pairing_accepts_paired_code() {
    let f = fixture(
        "crates/example/src/lib.rs",
        include_str!("../fixtures/checkout_pairing_good.rs"),
    );
    assert_eq!(lines_for(&f, "checkout-pairing"), Vec::<u32>::new());
}

// --------------------------------------------------------- metric names

#[test]
fn metric_name_registry_flags_literals_and_formats() {
    let f = fixture(
        "crates/example/src/lib.rs",
        include_str!("../fixtures/metric_names_bad.rs"),
    );
    assert_eq!(
        lines_for(&f, "metric-name-registry"),
        vec![5, 6, 7],
        "counter literal, gauge literal, histogram &format!"
    );
}

#[test]
fn metric_name_registry_accepts_names_constants() {
    let f = fixture(
        "crates/example/src/lib.rs",
        include_str!("../fixtures/metric_names_good.rs"),
    );
    assert_eq!(lines_for(&f, "metric-name-registry"), Vec::<u32>::new());
}

// ------------------------------------------------------------ no-unwrap

#[test]
fn no_unwrap_flags_daemon_paths_only() {
    let bad = include_str!("../fixtures/no_unwrap_bad.rs");
    let daemon = fixture("crates/net/src/server.rs", bad);
    assert_eq!(
        lines_for(&daemon, "no-unwrap-in-daemon"),
        vec![6, 7],
        "unwrap and expect in a request path"
    );
    // The same code outside the daemon scope is not this rule's business.
    let elsewhere = fixture("crates/query/src/planner.rs", bad);
    assert_eq!(
        lines_for(&elsewhere, "no-unwrap-in-daemon"),
        Vec::<u32>::new()
    );
}

#[test]
fn no_unwrap_accepts_typed_errors_tests_and_allows() {
    let f = fixture(
        "crates/coord/src/daemon.rs",
        include_str!("../fixtures/no_unwrap_good.rs"),
    );
    assert_eq!(lines_for(&f, "no-unwrap-in-daemon"), Vec::<u32>::new());
}

// ------------------------------------------------------ opcode coverage

#[test]
fn opcode_coverage_flags_variants_without_a_handler_arm() {
    let proto = fixture(
        "crates/net/src/proto.rs",
        include_str!("../fixtures/opcode/proto.rs"),
    );
    let server = fixture(
        "crates/net/src/server.rs",
        include_str!("../fixtures/opcode/server.rs"),
    );
    let ctx = OpcodeCtx {
        proto: &proto,
        handlers: vec![&server],
    };
    let mut out = Vec::new();
    pangea_lint::rules::opcode_coverage(&ctx, &mut out);
    let got: Vec<(u32, String)> = out.iter().map(|d| (d.line, d.msg.clone())).collect();
    assert_eq!(
        got,
        vec![
            (9, "Request::Orphan is missing a handler arm".to_string()),
            (16, "Response::Lost is missing a handler arm".to_string()),
        ],
        "Ping/Ok are handled, Waived is allow-annotated, Orphan/Lost fire \
         (a mention in a test module does not count)"
    );
}

// ---------------------------------------------------------- whole-tree

/// The real tree must lint clean through the same entry point CI uses —
/// this is the test that keeps the repo's own invariants enforced even
/// if someone breaks the CI wiring.
#[test]
fn the_workspace_lints_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    collect(&root, &root, &mut files);
    assert!(files.len() > 100, "walker should see the whole workspace");
    let diags = lint_project(&files);
    assert!(
        diags.is_empty(),
        "workspace has lint diagnostics:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

fn collect(root: &std::path::Path, dir: &std::path::Path, out: &mut Vec<LintedFile>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
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
