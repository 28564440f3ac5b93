//! `lint.allow.toml` — the explicit, reviewed escape hatch.
//!
//! Every entry names a rule, a file, a substring of the offending source
//! line, and a human justification. A finding is suppressed only when all
//! three match, so an allowance cannot silently widen to new code; an
//! entry that matches nothing is itself reported (`stale-allow`) so the
//! file can only shrink as violations are fixed.
//!
//! The format is a small TOML subset parsed by hand (the lint crate has no
//! dependencies): `[[allow]]` tables with `key = "value"` pairs and `#`
//! comments.
//!
//! ```toml
//! [[allow]]
//! rule = "determinism"
//! path = "crates/harl/src/optimizer.rs"
//! pattern = "Instant::now"
//! reason = "plan_wall_s measures real planning latency, not simulated time"
//! ```

/// One allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule name the entry suppresses (must match a known rule).
    pub rule: String,
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// Substring that must appear on the flagged source line.
    pub pattern: String,
    /// Why this site is legitimate; required, so every exception is reasoned.
    pub reason: String,
    /// 1-based line of the `[[allow]]` header in the allowlist file.
    pub line: usize,
}

/// Parse the allowlist. Returns an error string (with a line number) on
/// malformed input: a broken allowlist must fail the lint run loudly, not
/// silently allow everything or nothing.
pub fn parse(src: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut current: Option<(usize, [Option<String>; 4])> = None;
    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            finish(&mut current, &mut entries)?;
            current = Some((lineno, [None, None, None, None]));
            continue;
        }
        if line.starts_with('[') {
            return Err(format!(
                "lint.allow.toml:{lineno}: unknown table `{line}` (only [[allow]] is supported)"
            ));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "lint.allow.toml:{lineno}: expected `key = \"value\"`"
            ));
        };
        let key = key.trim();
        let value = value.trim();
        let value = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| {
                format!("lint.allow.toml:{lineno}: value for `{key}` must be a \"quoted string\"")
            })?;
        let Some((_, fields)) = current.as_mut() else {
            return Err(format!(
                "lint.allow.toml:{lineno}: `{key}` outside an [[allow]] table"
            ));
        };
        let slot = match key {
            "rule" => 0,
            "path" => 1,
            "pattern" => 2,
            "reason" => 3,
            _ => {
                return Err(format!(
                "lint.allow.toml:{lineno}: unknown key `{key}` (expected rule/path/pattern/reason)"
            ))
            }
        };
        if fields[slot].is_some() {
            return Err(format!("lint.allow.toml:{lineno}: duplicate key `{key}`"));
        }
        fields[slot] = Some(value.to_string());
    }
    finish(&mut current, &mut entries)?;
    Ok(entries)
}

fn finish(
    current: &mut Option<(usize, [Option<String>; 4])>,
    entries: &mut Vec<AllowEntry>,
) -> Result<(), String> {
    let Some((line, fields)) = current.take() else {
        return Ok(());
    };
    let [rule, path, pattern, reason] = fields;
    let missing =
        |name: &str| format!("lint.allow.toml:{line}: [[allow]] entry is missing the `{name}` key");
    entries.push(AllowEntry {
        rule: rule.ok_or_else(|| missing("rule"))?,
        path: path.ok_or_else(|| missing("path"))?,
        pattern: pattern.ok_or_else(|| missing("pattern"))?,
        reason: reason.ok_or_else(|| missing("reason"))?,
        line,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_comments() {
        let src = r#"
# wall-clock metric
[[allow]]
rule = "determinism"
path = "crates/harl/src/optimizer.rs"
pattern = "Instant::now"
reason = "plan_wall_s"

[[allow]]
rule = "determinism"
path = "crates/simcore/src/profiler.rs"
pattern = "Instant"
reason = "phase profiler"
"#;
        let entries = parse(src).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].rule, "determinism");
        assert_eq!(entries[1].pattern, "Instant");
        assert_eq!(entries[0].line, 3);
    }

    #[test]
    fn missing_key_is_an_error() {
        let src = "[[allow]]\nrule = \"determinism\"\npath = \"x.rs\"\npattern = \"y\"\n";
        let err = parse(src).unwrap_err();
        assert!(err.contains("missing the `reason` key"), "{err}");
    }

    #[test]
    fn unknown_key_is_an_error() {
        let src = "[[allow]]\nrule = \"x\"\nfile = \"y\"\n";
        assert!(parse(src).unwrap_err().contains("unknown key `file`"));
    }

    #[test]
    fn unquoted_value_is_an_error() {
        let src = "[[allow]]\nrule = determinism\n";
        assert!(parse(src).unwrap_err().contains("quoted string"));
    }

    #[test]
    fn empty_file_is_empty_allowlist() {
        assert_eq!(parse("# nothing here\n").unwrap(), vec![]);
    }
}
