//! Fixture-driven integration tests: each rule family against a seeded
//! violation (fires exactly once) and, where it has one, a clean twin —
//! inline snippets for the per-file rules, miniature on-disk workspaces
//! for what the driver decides (crate scope, dead lock declarations, the
//! walker, the binary's exit code).

use memex_lint::config::{Config, Rule};
use memex_lint::rules::locks::{cycle_findings, LockAnalysis};
use memex_lint::rules::{locks, metrics, panic_rule};
use memex_lint::{lexer, parse, scan};

fn model(src: &str) -> parse::FileModel {
    parse::model(lexer::lex(src))
}

const BASE_CONFIG: &str = r#"
[lint]
panic_crates = ["serving"]
metrics_catalog = "docs/METRICS.md"

[locks]
order = ["lock.outer", "lock.inner"]

[locks.aliases]
"outer" = "lock.outer"
"inner" = "lock.inner"
"a" = "lock.a"
"b" = "lock.b"
"#;

// ---------------------------------------------------------------------------
// Family 1: panic-freedom
// ---------------------------------------------------------------------------

#[test]
fn panic_family_full_fixture() {
    let src = r#"
        /// Doc comment with .unwrap() and panic!("decoy").
        pub fn serve(input: Option<&[u8]>, n: usize) -> u8 {
            let buf = input.unwrap();            // finding 1
            let first = buf[0];                  // finding 2
            if n > buf.len() {
                panic!("out of range");          // finding 3
            }
            let s = "string with .expect() inside";
            let _ = s;
            first
        }

        #[cfg(test)]
        mod tests {
            #[test]
            fn exempt() {
                super::serve(Some(&[1]), 0);
                Option::<u8>::None.unwrap_or(0);
                let v: Vec<u8> = vec![];
                v.first().copied().unwrap();
            }
        }
    "#;
    let found = panic_rule::check(&model(src), "crates/serving/src/main.rs", true);
    assert_eq!(found.len(), 3, "{found:?}");
    assert!(found.iter().all(|f| f.function == "serve"));
}

// ---------------------------------------------------------------------------
// Family 2: lock discipline
// ---------------------------------------------------------------------------

#[test]
fn lock_order_violation_fixture() {
    let cfg = Config::parse(BASE_CONFIG).unwrap();
    let src = r#"
        fn backwards(outer: M, inner: M) {
            let gi = inner.lock();
            let go = outer.lock();
        }
    "#;
    let mut analysis = LockAnalysis::default();
    locks::check(&model(src), "crates/serving/src/x.rs", &cfg, &mut analysis);
    assert_eq!(analysis.findings.len(), 1, "{:?}", analysis.findings);
    assert!(analysis.findings[0]
        .message
        .contains("lock order violation"));
}

#[test]
fn lock_cycle_across_files_fixture() {
    // `a` and `b` are aliased but deliberately not ranked; two files nest
    // them in opposite directions — a workspace-wide cycle.
    let cfg = Config::parse(BASE_CONFIG).unwrap();
    let file1 = r#"
        fn forward(a: M, b: M) {
            let ga = a.lock();
            let gb = b.lock();
        }
    "#;
    let file2 = r#"
        fn backward(a: M, b: M) {
            let gb = b.lock();
            let ga = a.lock();
        }
    "#;
    let mut analysis = LockAnalysis::default();
    locks::check(
        &model(file1),
        "crates/serving/src/one.rs",
        &cfg,
        &mut analysis,
    );
    locks::check(
        &model(file2),
        "crates/serving/src/two.rs",
        &cfg,
        &mut analysis,
    );
    assert!(analysis.findings.is_empty(), "{:?}", analysis.findings);
    assert_eq!(analysis.edges.len(), 2);

    let cycles = cycle_findings(&analysis.edges);
    assert_eq!(cycles.len(), 2, "every edge of the cycle is reported");
    assert!(cycles.iter().any(|f| f.file == "crates/serving/src/one.rs"));
    assert!(cycles.iter().any(|f| f.file == "crates/serving/src/two.rs"));

    // Removing one direction dissolves the cycle.
    let one_way = cycle_findings(&analysis.edges[..1]);
    assert!(one_way.is_empty());
}

// ---------------------------------------------------------------------------
// Family 3: metric catalog
// ---------------------------------------------------------------------------

#[test]
fn metric_catalog_fixture() {
    let catalog = r#"
# Catalog

| name | kind | meaning |
|------|------|---------|
| `app.requests` | counter | requests |
| `app.*.latency` | histogram | per-handler latency |
| `app.orphan` | gauge | documented, never emitted |
"#;
    let src = r#"
        fn handle(reg: &Registry, name: &str) {
            reg.counter("app.requests").inc();
            reg.histogram("app.search.latency").observe(3);
            reg.histogram(&format!("app.{name}.latency")).observe(4);
            reg.counter("app.undocumented").inc();
        }
    "#;
    let uses = metrics::collect_uses(&model(src), "crates/serving/src/h.rs");
    assert_eq!(
        uses.len(),
        3,
        "format! names are not literal uses: {uses:?}"
    );
    let entries = metrics::parse_catalog(catalog);
    let findings = metrics::check("docs/METRICS.md", &entries, &uses);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings[0].message.contains("app.undocumented"));
    assert!(findings[0].file.ends_with("h.rs"));
    assert!(findings[1].message.contains("app.orphan"));
    assert_eq!(findings[1].file, "docs/METRICS.md");
}

// ---------------------------------------------------------------------------
// On-disk mini-workspaces: what the driver decides
// ---------------------------------------------------------------------------

struct TempTree(std::path::PathBuf);

impl TempTree {
    fn new(tag: &str) -> TempTree {
        let root =
            std::env::temp_dir().join(format!("memex-lint-fixture-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        TempTree(root)
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.0.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, content).unwrap();
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scan_tree(tree: &TempTree, config: &str) -> Vec<memex_lint::rules::Finding> {
    let cfg = Config::parse(config).unwrap();
    scan(&tree.0, &cfg).unwrap().findings
}

/// Family 1's scope: the call half applies to every crate but the offline
/// tools, the indexing half only to `panic_crates`.
#[test]
fn panic_call_half_is_workspace_wide_on_disk_fixture() {
    const CONFIG: &str = "[lint]\npanic_crates = [\"serving\"]\n";
    const UNWRAP: &str = "pub fn reseed(x: Option<u8>) -> u8 { x.expect(\"n > 0\") }";
    const INDEXING: &str = "pub fn first(v: &[u8]) -> u8 { v[0] }";

    let seeded = TempTree::new("panic-wide-bad");
    seeded.write("crates/mining/src/kmeans.rs", UNWRAP);
    let findings = scan_tree(&seeded, CONFIG);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::Panic);
    assert_eq!(findings[0].file, "crates/mining/src/kmeans.rs");

    // Indexing outside `panic_crates` is not a finding…
    let indexing = TempTree::new("panic-wide-indexing");
    indexing.write("crates/mining/src/kmeans.rs", INDEXING);
    assert!(scan_tree(&indexing, CONFIG).is_empty());
    // …inside them it is.
    indexing.write("crates/serving/src/decode.rs", INDEXING);
    assert_eq!(scan_tree(&indexing, CONFIG).len(), 1);

    // The same unwrap in an offline-tool crate is out of scope.
    let offline = TempTree::new("panic-wide-offline");
    offline.write("crates/bench/src/kmeans.rs", UNWRAP);
    offline.write("crates/memex-lint/src/kmeans.rs", UNWRAP);
    assert!(scan_tree(&offline, CONFIG).is_empty());
}

/// Family 2's no-vacuous-green rule: an alias row no acquisition resolves
/// to is a finding; the same row with a live acquisition is not.
#[test]
fn dead_lock_alias_on_disk_fixture() {
    const CONFIG: &str = r#"
[locks]
order = ["lock.outer", "lock.inner"]

[locks.aliases]
"outer" = "lock.outer"
"inner" = "lock.inner"
"#;
    let seeded = TempTree::new("dead-alias-bad");
    seeded.write(
        "crates/srv/src/main.rs",
        r#"
            fn nested(outer: M, inner: M) {
                let go = outer.lock();
                let gi = lock_helper(inner);
            }
        "#,
    );
    let findings = scan_tree(&seeded, CONFIG);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::Locks);
    assert_eq!(findings[0].file, "LINT.toml");
    assert!(
        findings[0].message.contains("\"inner\""),
        "{}",
        findings[0].message
    );

    let live = TempTree::new("dead-alias-good");
    live.write(
        "crates/srv/src/main.rs",
        r#"
            fn nested(outer: M, inner: M) {
                let go = outer.lock();
                let gi = inner.lock();
            }
        "#,
    );
    let findings = scan_tree(&live, CONFIG);
    assert!(findings.is_empty(), "{findings:?}");
}

/// Run the `memex-lint` binary inside `tree`; returns (exit code, stdout).
fn run_binary(tree: &TempTree) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_memex-lint"))
        .current_dir(&tree.0)
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// End to end: the walker, the families in one scan, and the only
/// policy there is — a seeded finding on disk exits non-zero, its clean
/// twin exits 0.
#[test]
fn seeded_finding_exits_nonzero_and_clean_twin_exits_zero() {
    const CONFIG: &str = r#"
[lint]
panic_crates = ["serving"]
metrics_catalog = "docs/METRICS.md"
"#;
    let tree = TempTree::new("e2e");
    tree.write("LINT.toml", CONFIG);
    tree.write(
        "crates/serving/src/main.rs",
        r#"
            pub fn risky(x: Option<u8>) -> u8 {
                x.unwrap()
            }
        "#,
    );
    // Vendored and non-src code must be invisible to the scan.
    tree.write(
        "crates/serving/src/vendor/dep.rs",
        "pub fn v(x: Option<u8>) -> u8 { x.unwrap() }",
    );
    tree.write(
        "crates/serving/tests/it.rs",
        "fn t(x: Option<u8>) -> u8 { x.unwrap() }",
    );
    tree.write(
        "docs/METRICS.md",
        "| `app.requests` | counter | documented but unused |\n",
    );

    let cfg = Config::parse(CONFIG).unwrap();
    let scanned = scan(&tree.0, &cfg).unwrap();
    assert_eq!(
        scanned.files_scanned, 1,
        "vendor/ and tests/ must be invisible to the walker"
    );
    let by_rule: Vec<Rule> = scanned.findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        by_rule,
        vec![Rule::Panic, Rule::Metrics],
        "{:?}",
        scanned.findings
    );
    let (code, stdout) = run_binary(&tree);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("2 findings"), "{stdout}");

    // One finding left is still a failed run: nothing absorbs it.
    tree.write("docs/METRICS.md", "no table rows\n");
    let (code, stdout) = run_binary(&tree);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("1 findings"), "{stdout}");

    // The clean twin.
    tree.write(
        "crates/serving/src/main.rs",
        "pub fn risky(x: Option<u8>) -> u8 { x.unwrap_or(0) }",
    );
    let (code, stdout) = run_binary(&tree);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("0 findings"), "{stdout}");

    // An allow table is a configuration error (exit 2), not an escape hatch.
    tree.write(
        "LINT.toml",
        &format!("{CONFIG}\n[[allow]]\nrule = \"panic\"\n"),
    );
    assert_eq!(run_binary(&tree).0, Some(2));
}
