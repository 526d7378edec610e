//! `LINT.toml` — rule configuration plus the checked-in violation
//! baseline, parsed with a hand-rolled reader for the TOML subset the
//! file actually uses (tables, array-of-tables, string/number values,
//! string arrays, quoted keys, comments).
//!
//! The baseline lives between `# --- BEGIN BASELINE` / `# --- END
//! BASELINE` markers so `--fix-baseline` can regenerate it textually
//! without disturbing the hand-written configuration above it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which rule family a finding (or baseline entry) belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    Panic,
    Locks,
    Metrics,
    Codec,
    /// Blocking operation while a declared lock guard is live.
    Blocking,
    /// Cross-function lock order / recursion through the call graph.
    CrossLocks,
    /// WAL truncate without a preceding sync in a configured fn chain.
    Durability,
    /// Panic site reachable from a serving-crate dispatch root.
    PanicReach,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::Panic => "panic",
            Rule::Locks => "locks",
            Rule::Metrics => "metrics",
            Rule::Codec => "codec",
            Rule::Blocking => "blocking",
            Rule::CrossLocks => "locks-cross",
            Rule::Durability => "durability",
            Rule::PanicReach => "panic-reach",
        }
    }

    pub fn from_name(s: &str) -> Option<Rule> {
        match s {
            "panic" => Some(Rule::Panic),
            "locks" => Some(Rule::Locks),
            "metrics" => Some(Rule::Metrics),
            "codec" => Some(Rule::Codec),
            "blocking" => Some(Rule::Blocking),
            "locks-cross" => Some(Rule::CrossLocks),
            "durability" => Some(Rule::Durability),
            "panic-reach" => Some(Rule::PanicReach),
            _ => None,
        }
    }
}

/// Parsed `LINT.toml`.
#[derive(Debug, Default, Clone)]
pub struct Config {
    /// Crates whose non-test `src/` code must be panic-free.
    pub panic_crates: Vec<String>,
    /// Files whose configured functions must have wildcard-free matches.
    pub codec_files: Vec<String>,
    /// Function names the codec rule applies to within `codec_files`.
    pub codec_functions: Vec<String>,
    /// Repo-relative path of the metric catalog document.
    pub metrics_catalog: String,
    /// Declared lock acquisition order, outermost first.
    pub lock_order: Vec<String>,
    /// Receiver-path → lock-name aliases. Keys are either a bare path
    /// suffix (`shared.memex`) or file-scoped (`server.rs:rx`).
    pub lock_aliases: BTreeMap<String, String>,
    /// Baseline: (rule, file) → tolerated finding count.
    pub baseline: BTreeMap<(Rule, String), usize>,
    /// Method names the blocking rule treats as blocking operations.
    pub blocking_methods: Vec<String>,
    /// `(lock name, function name-or-qname)` pairs exempted from the
    /// blocking rule — deliberate blocking-under-lock (e.g. a
    /// mutex-wrapped channel receiver).
    pub blocking_allow: Vec<(String, String)>,
    /// Function names (bare or `Type::name`) the durability rule roots
    /// its chain analysis at.
    pub durability_functions: Vec<String>,
    /// Method names counting as a durability `sync` event.
    pub durability_sync: Vec<String>,
    /// Method names counting as a durability `truncate` event.
    pub durability_truncate: Vec<String>,
    /// Receiver paths (or dotted suffixes) tagged as WAL storage.
    pub durability_wal_paths: Vec<String>,
    /// Dispatch roots (bare or `Type::name`) for panic-reachability.
    pub reach_roots: Vec<String>,
    /// Interprocedural propagation depth; 0 means "default" (4).
    pub max_call_depth: usize,
}

const BASELINE_BEGIN: &str = "# --- BEGIN BASELINE";
const BASELINE_END: &str = "# --- END BASELINE";

/// Strip a trailing comment from a TOML line (respecting quotes).
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn unquote(s: &str) -> String {
    let s = s.trim();
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or(s)
        .to_string()
}

/// Parse a `["a", "b", …]` array body (already brace-stripped) into items.
fn parse_string_array(body: &str) -> Vec<String> {
    body.split(',')
        .map(unquote)
        .filter(|s| !s.is_empty())
        .collect()
}

impl Config {
    /// Parse the configuration text. Unknown keys are ignored (forward
    /// compatibility); malformed lines produce an error naming the line.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        // Pending [[allow]] entry fields.
        let mut allow_rule: Option<Rule> = None;
        let mut allow_file: Option<String> = None;
        let mut allow_count: Option<usize> = None;
        // Pending [[blocking.allow]] entry fields.
        let mut ba_lock: Option<String> = None;
        let mut ba_func: Option<String> = None;
        // Multi-line array accumulation: (key, partial body).
        let mut open_array: Option<(String, String)> = None;

        let flush_allow =
            |rule: &mut Option<Rule>,
             file: &mut Option<String>,
             count: &mut Option<usize>,
             baseline: &mut BTreeMap<(Rule, String), usize>| {
                if let (Some(r), Some(f), Some(c)) = (rule.take(), file.take(), count.take()) {
                    baseline.insert((r, f), c);
                }
            };
        let flush_block = |lock: &mut Option<String>,
                           func: &mut Option<String>,
                           allow: &mut Vec<(String, String)>| {
            if let (Some(l), Some(f)) = (lock.take(), func.take()) {
                allow.push((l, f));
            }
        };

        for (ln, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some((key, mut body)) = open_array.take() {
                // Continuing a multi-line array.
                body.push_str(line);
                if line.ends_with(']') {
                    let inner = body.trim_end_matches(']').to_string();
                    cfg.assign_array(&section, &key, parse_string_array(&inner));
                } else {
                    open_array = Some((key, body));
                }
                continue;
            }
            if line.starts_with("[[") && line.ends_with("]]") {
                flush_allow(
                    &mut allow_rule,
                    &mut allow_file,
                    &mut allow_count,
                    &mut cfg.baseline,
                );
                flush_block(&mut ba_lock, &mut ba_func, &mut cfg.blocking_allow);
                section = line[2..line.len() - 2].trim().to_string();
                continue;
            }
            if line.starts_with('[') && line.ends_with(']') {
                flush_allow(
                    &mut allow_rule,
                    &mut allow_file,
                    &mut allow_count,
                    &mut cfg.baseline,
                );
                flush_block(&mut ba_lock, &mut ba_func, &mut cfg.blocking_allow);
                section = line[1..line.len() - 1].trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("LINT.toml line {}: expected key = value", ln + 1));
            };
            let key = unquote(key);
            let value = value.trim();
            if let Some(body) = value.strip_prefix('[') {
                if let Some(inner) = body.strip_suffix(']') {
                    cfg.assign_array(&section, &key, parse_string_array(inner));
                } else {
                    open_array = Some((key, body.to_string()));
                }
                continue;
            }
            match (section.as_str(), key.as_str()) {
                ("allow", "rule") => {
                    allow_rule = Rule::from_name(&unquote(value));
                    if allow_rule.is_none() {
                        return Err(format!("LINT.toml line {}: unknown rule {value:?}", ln + 1));
                    }
                }
                ("allow", "file") => allow_file = Some(unquote(value)),
                ("allow", "count") => {
                    allow_count = Some(value.parse().map_err(|_| {
                        format!("LINT.toml line {}: count must be an integer", ln + 1)
                    })?)
                }
                ("lint", "metrics_catalog") => cfg.metrics_catalog = unquote(value),
                ("locks.aliases", _) => {
                    cfg.lock_aliases.insert(key, unquote(value));
                }
                ("blocking.allow", "lock") => ba_lock = Some(unquote(value)),
                ("blocking.allow", "function") => ba_func = Some(unquote(value)),
                ("interproc", "max_call_depth") => {
                    cfg.max_call_depth = value.parse().map_err(|_| {
                        format!(
                            "LINT.toml line {}: max_call_depth must be an integer",
                            ln + 1
                        )
                    })?
                }
                _ => {} // unknown key: ignore
            }
        }
        flush_allow(
            &mut allow_rule,
            &mut allow_file,
            &mut allow_count,
            &mut cfg.baseline,
        );
        flush_block(&mut ba_lock, &mut ba_func, &mut cfg.blocking_allow);
        if cfg.metrics_catalog.is_empty() {
            cfg.metrics_catalog = "docs/METRICS.md".to_string();
        }
        Ok(cfg)
    }

    fn assign_array(&mut self, section: &str, key: &str, items: Vec<String>) {
        match (section, key) {
            ("lint", "panic_crates") => self.panic_crates = items,
            ("lint", "codec_files") => self.codec_files = items,
            ("lint", "codec_functions") => self.codec_functions = items,
            ("locks", "order") => self.lock_order = items,
            ("blocking", "methods") => self.blocking_methods = items,
            ("durability", "functions") => self.durability_functions = items,
            ("durability", "sync_methods") => self.durability_sync = items,
            ("durability", "truncate_methods") => self.durability_truncate = items,
            ("durability", "wal_paths") => self.durability_wal_paths = items,
            ("reachability", "roots") => self.reach_roots = items,
            _ => {}
        }
    }

    /// Index of a lock name in the declared order, if declared.
    pub fn lock_rank(&self, name: &str) -> Option<usize> {
        self.lock_order.iter().position(|n| n == name)
    }

    /// Effective interprocedural propagation depth (default 4).
    pub fn call_depth(&self) -> usize {
        if self.max_call_depth == 0 {
            4
        } else {
            self.max_call_depth
        }
    }

    /// Is `(lock, function)` exempted from the blocking rule? Function
    /// matches on the bare name or the `Type::name` qname.
    pub fn blocking_allowed(&self, lock: &str, name: &str, qname: &str) -> bool {
        self.blocking_allow
            .iter()
            .any(|(l, f)| l == lock && (f == name || f == qname))
    }

    /// Resolve a receiver path (e.g. `shared.memex`) in `file` (repo-
    /// relative path) to a declared lock name. Tries file-scoped aliases
    /// (`server.rs:memex`) before bare ones, longest path suffix first.
    pub fn resolve_lock(&self, file: &str, path: &str) -> Option<&str> {
        let basename = file.rsplit('/').next().unwrap_or(file);
        let segments: Vec<&str> = path.split('.').collect();
        for start in 0..segments.len() {
            let suffix = segments[start..].join(".");
            if let Some(name) = self.lock_aliases.get(&format!("{basename}:{suffix}")) {
                return Some(name);
            }
        }
        for start in 0..segments.len() {
            let suffix = segments[start..].join(".");
            if let Some(name) = self.lock_aliases.get(&suffix) {
                return Some(name);
            }
        }
        None
    }
}

/// Render a baseline section body from (rule, file) → count.
pub fn render_baseline(baseline: &BTreeMap<(Rule, String), usize>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{BASELINE_BEGIN} (regenerate with: cargo run -p memex-lint -- --fix-baseline) ---"
    );
    for ((rule, file), count) in baseline {
        if *count == 0 {
            continue;
        }
        let _ = writeln!(out, "\n[[allow]]");
        let _ = writeln!(out, "rule = \"{}\"", rule.name());
        let _ = writeln!(out, "file = \"{file}\"");
        let _ = writeln!(out, "count = {count}");
    }
    let _ = writeln!(out, "{BASELINE_END} ---");
    out
}

/// Replace the baseline section of the LINT.toml text (everything between
/// the BEGIN/END markers, inclusive) with a freshly rendered one. When no
/// markers exist, the section is appended.
pub fn splice_baseline(text: &str, baseline: &BTreeMap<(Rule, String), usize>) -> String {
    let rendered = render_baseline(baseline);
    let begin = text.find(BASELINE_BEGIN);
    let end = text
        .find(BASELINE_END)
        .and_then(|p| text[p..].find('\n').map(|nl| p + nl + 1));
    match (begin, end) {
        (Some(b), Some(e)) if b < e => {
            let mut out = String::with_capacity(text.len());
            out.push_str(&text[..b]);
            out.push_str(&rendered);
            out.push_str(&text[e..]);
            out
        }
        _ => {
            let mut out = text.trim_end().to_string();
            out.push_str("\n\n");
            out.push_str(&rendered);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
[lint]
panic_crates = ["memex-net", "memex-store"]
codec_files = ["crates/memex-net/src/wire.rs"]
codec_functions = [
    "encode_request",
    "decode_request",
]
metrics_catalog = "docs/METRICS.md"

[locks]
order = ["net.accept_rx", "net.memex"]

[locks.aliases]
"server.rs:rx" = "net.accept_rx"
"shared.memex" = "net.memex"

# --- BEGIN BASELINE (regenerate with: cargo run -p memex-lint -- --fix-baseline) ---

[[allow]]
rule = "panic"
file = "crates/memex-store/src/kv.rs"
count = 12
# --- END BASELINE ---
"#;

    #[test]
    fn parses_the_full_shape() {
        let cfg = Config::parse(SAMPLE).unwrap();
        assert_eq!(cfg.panic_crates, vec!["memex-net", "memex-store"]);
        assert_eq!(
            cfg.codec_functions,
            vec!["encode_request", "decode_request"]
        );
        assert_eq!(cfg.lock_order, vec!["net.accept_rx", "net.memex"]);
        assert_eq!(
            cfg.baseline
                .get(&(Rule::Panic, "crates/memex-store/src/kv.rs".into())),
            Some(&12)
        );
    }

    #[test]
    fn lock_resolution_prefers_file_scope_and_longest_suffix() {
        let cfg = Config::parse(SAMPLE).unwrap();
        assert_eq!(
            cfg.resolve_lock("crates/memex-net/src/server.rs", "rx"),
            Some("net.accept_rx")
        );
        assert_eq!(
            cfg.resolve_lock("crates/memex-net/src/server.rs", "shared.memex"),
            Some("net.memex")
        );
        assert_eq!(cfg.resolve_lock("other.rs", "rx"), None);
    }

    #[test]
    fn baseline_splice_round_trips() {
        let mut baseline = BTreeMap::new();
        baseline.insert((Rule::Panic, "a.rs".to_string()), 3usize);
        baseline.insert((Rule::Codec, "b.rs".to_string()), 1usize);
        let spliced = splice_baseline(SAMPLE, &baseline);
        let cfg = Config::parse(&spliced).unwrap();
        assert_eq!(cfg.baseline.len(), 2);
        assert_eq!(cfg.baseline.get(&(Rule::Panic, "a.rs".into())), Some(&3));
        // The hand-written config above the markers survived.
        assert_eq!(cfg.lock_order, vec!["net.accept_rx", "net.memex"]);
        // Splicing twice is stable.
        let again = splice_baseline(&spliced, &baseline);
        assert_eq!(spliced, again);
    }

    #[test]
    fn interproc_sections_parse() {
        let text = r#"
[interproc]
max_call_depth = 3

[blocking]
methods = ["sync", "sleep", "recv"]

[[blocking.allow]]
lock = "net.accept_rx"
function = "worker_loop"
reason = "mutex-wrapped channel receiver: recv under the lock is the design"

[durability]
functions = ["LsmStore::seal", "LsmStore::compact_now"]
sync_methods = ["sync", "sync_all"]
truncate_methods = ["truncate", "set_len"]
wal_paths = ["wal"]

[reachability]
roots = ["accept_loop", "worker_loop"]
"#;
        let cfg = Config::parse(text).unwrap();
        assert_eq!(cfg.max_call_depth, 3);
        assert_eq!(cfg.call_depth(), 3);
        assert_eq!(Config::default().call_depth(), 4);
        assert_eq!(cfg.blocking_methods, vec!["sync", "sleep", "recv"]);
        assert_eq!(
            cfg.blocking_allow,
            vec![("net.accept_rx".to_string(), "worker_loop".to_string())]
        );
        assert!(cfg.blocking_allowed("net.accept_rx", "worker_loop", "worker_loop"));
        assert!(!cfg.blocking_allowed("net.memex", "worker_loop", "worker_loop"));
        assert_eq!(
            cfg.durability_functions,
            vec!["LsmStore::seal", "LsmStore::compact_now"]
        );
        assert_eq!(cfg.durability_wal_paths, vec!["wal"]);
        assert_eq!(cfg.reach_roots, vec!["accept_loop", "worker_loop"]);
    }

    #[test]
    fn new_rule_names_round_trip() {
        for r in [
            Rule::Blocking,
            Rule::CrossLocks,
            Rule::Durability,
            Rule::PanicReach,
        ] {
            assert_eq!(Rule::from_name(r.name()), Some(r));
        }
    }

    #[test]
    fn zero_count_entries_are_dropped() {
        let mut baseline = BTreeMap::new();
        baseline.insert((Rule::Panic, "a.rs".to_string()), 0usize);
        let body = render_baseline(&baseline);
        assert!(!body.contains("a.rs"));
    }
}
