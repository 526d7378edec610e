//! `LINT.toml` — rule configuration, parsed with a hand-rolled reader for
//! the TOML subset the file actually uses (tables, string values, string
//! arrays, quoted keys, comments). There is no baseline and no allow
//! list: an array-of-tables header (`[[…]]`) is a parse error.

use std::collections::BTreeMap;

/// Which rule family a finding belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    Panic,
    Locks,
    Metrics,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::Panic => "panic",
            Rule::Locks => "locks",
            Rule::Metrics => "metrics",
        }
    }
}

/// Parsed `LINT.toml`.
#[derive(Debug, Default, Clone)]
pub struct Config {
    /// Crates whose non-test `src/` code must also be free of slice/array
    /// indexing (the call half of the panic rule applies everywhere).
    pub panic_crates: Vec<String>,
    /// Repo-relative path of the metric catalog document.
    pub metrics_catalog: String,
    /// Declared lock acquisition order, outermost first.
    pub lock_order: Vec<String>,
    /// Receiver-path → lock-name aliases. Keys are either a bare path
    /// suffix (`shared.memex`) or file-scoped (`server.rs:rx`).
    pub lock_aliases: BTreeMap<String, String>,
}

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

fn unknown_key(section: &str, key: &str, ln: usize) -> String {
    format!(
        "LINT.toml line {}: unknown key `{key}` in [{section}]",
        ln + 1
    )
}

impl Config {
    /// Parse the configuration text. Malformed lines and unknown keys
    /// produce an error naming the line: a typo must not switch a rule off.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        // Multi-line array accumulation: (key, partial body).
        let mut open_array: Option<(String, String)> = None;

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
                    cfg.assign_array(&section, &key, parse_string_array(&inner), ln)?;
                } else {
                    open_array = Some((key, body));
                }
                continue;
            }
            if line.starts_with("[[") {
                return Err(format!(
                    "LINT.toml line {}: {line} — there are no allow lists; fix the finding",
                    ln + 1
                ));
            }
            if line.starts_with('[') && line.ends_with(']') {
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
                    cfg.assign_array(&section, &key, parse_string_array(inner), ln)?;
                } else {
                    open_array = Some((key, body.to_string()));
                }
                continue;
            }
            match (section.as_str(), key.as_str()) {
                ("lint", "metrics_catalog") => cfg.metrics_catalog = unquote(value),
                ("locks.aliases", _) => {
                    cfg.lock_aliases.insert(key, unquote(value));
                }
                _ => return Err(unknown_key(&section, &key, ln)),
            }
        }
        if cfg.metrics_catalog.is_empty() {
            cfg.metrics_catalog = "docs/METRICS.md".to_string();
        }
        Ok(cfg)
    }

    fn assign_array(
        &mut self,
        section: &str,
        key: &str,
        items: Vec<String>,
        ln: usize,
    ) -> Result<(), String> {
        match (section, key) {
            ("lint", "panic_crates") => self.panic_crates = items,
            ("locks", "order") => self.lock_order = items,
            _ => return Err(unknown_key(section, key, ln)),
        }
        Ok(())
    }

    /// Index of a lock name in the declared order, if declared.
    pub fn lock_rank(&self, name: &str) -> Option<usize> {
        self.lock_order.iter().position(|n| n == name)
    }

    /// Resolve a receiver path (e.g. `shared.memex`) in `file` (repo-
    /// relative path) to the `(alias key, lock name)` row that declares
    /// it. Tries file-scoped aliases (`server.rs:memex`) before bare ones,
    /// longest path suffix first.
    pub fn resolve_lock(&self, file: &str, path: &str) -> Option<(&str, &str)> {
        let basename = file.rsplit('/').next().unwrap_or(file);
        let segments: Vec<&str> = path.split('.').collect();
        let suffixes = || (0..segments.len()).map(|start| segments[start..].join("."));
        suffixes()
            .map(|suffix| format!("{basename}:{suffix}"))
            .chain(suffixes())
            .find_map(|key| self.lock_aliases.get_key_value(&key))
            .map(|(key, name)| (key.as_str(), name.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
[lint]
panic_crates = [
    "memex-net",
    "memex-store",
]
metrics_catalog = "docs/METRICS.md"

[locks]
order = ["net.accept_rx", "net.memex"]

[locks.aliases]
"server.rs:rx" = "net.accept_rx"
"shared.memex" = "net.memex"
"#;

    #[test]
    fn parses_the_full_shape() {
        let cfg = Config::parse(SAMPLE).unwrap();
        assert_eq!(cfg.panic_crates, vec!["memex-net", "memex-store"]);
        assert_eq!(cfg.lock_order, vec!["net.accept_rx", "net.memex"]);
        assert_eq!(cfg.metrics_catalog, "docs/METRICS.md");
    }

    #[test]
    fn allow_tables_are_a_parse_error() {
        let text = format!("{SAMPLE}\n[[allow]]\nrule = \"panic\"\n");
        let err = Config::parse(&text).unwrap_err();
        assert!(err.contains("[[allow]]"), "{err}");
    }

    #[test]
    fn unknown_keys_are_a_parse_error() {
        let err = Config::parse("[lint]\npanic_crate = [\"x\"]\n").unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("panic_crate"),
            "{err}"
        );
        assert!(Config::parse("[reachability]\nroots = [\"f\"]\n").is_err());
    }

    #[test]
    fn lock_resolution_prefers_file_scope_and_longest_suffix() {
        let cfg = Config::parse(SAMPLE).unwrap();
        assert_eq!(
            cfg.resolve_lock("crates/memex-net/src/server.rs", "rx"),
            Some(("server.rs:rx", "net.accept_rx"))
        );
        assert_eq!(
            cfg.resolve_lock("crates/memex-net/src/server.rs", "self.shared.memex"),
            Some(("shared.memex", "net.memex"))
        );
        assert_eq!(cfg.resolve_lock("other.rs", "rx"), None);
    }
}
