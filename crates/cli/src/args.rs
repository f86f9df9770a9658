//! Minimal `--flag value` argument parsing.

use std::collections::HashMap;

/// Parsed `--key value` pairs.
pub struct Args {
    values: HashMap<String, String>,
}

impl Args {
    /// Parse `--key value` pairs of the subcommand whose flags are
    /// `known` (space-separated names); rejects stray positionals,
    /// flags without values and flags it does not know, naming them.
    pub fn parse(argv: &[String], known: &str) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let key =
                flag.strip_prefix("--").ok_or_else(|| format!("expected --flag, got {flag:?}"))?;
            if !known.split(' ').any(|k| k == key) {
                return Err(format!(
                    "unknown flag --{key} (known: --{})",
                    known.replace(' ', " --")
                ));
            }
            let value = it.next().ok_or_else(|| format!("--{key} requires a value"))?;
            values.insert(key.to_string(), value.clone());
        }
        Ok(Args { values })
    }

    /// An optional string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// A required string flag.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// An optional string flag with a default.
    pub fn or(&self, key: &str, default: &str) -> String {
        self.values.get(key).cloned().unwrap_or_else(|| default.to_string())
    }

    /// An optional parsed flag with a default.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    const KNOWN: &str = "size family seed rules";

    #[test]
    fn parses_flag_pairs() {
        let a = Args::parse(&argv(&["--size", "100", "--family", "acl"]), KNOWN).unwrap();
        assert_eq!(a.required("size").unwrap(), "100");
        assert_eq!(a.or("family", "fw"), "acl");
        assert_eq!(a.or("seed", "7"), "7");
        assert_eq!(a.parse_or::<usize>("size", 0).unwrap(), 100);
    }

    #[test]
    fn rejects_missing_values_and_positionals() {
        assert!(Args::parse(&argv(&["--size"]), KNOWN).is_err());
        assert!(Args::parse(&argv(&["size", "100"]), KNOWN).is_err());
        let e = Args::parse(&argv(&["--szie", "100"]), KNOWN).err().unwrap();
        assert!(e.contains("--szie") && e.contains("--size"), "{e}");
    }

    #[test]
    fn missing_required_flag_errors() {
        let a = Args::parse(&argv(&[]), KNOWN).unwrap();
        assert!(a.required("rules").is_err());
    }

    #[test]
    fn bad_parse_reports_flag_name() {
        let a = Args::parse(&argv(&["--size", "lots"]), KNOWN).unwrap();
        let e = a.parse_or::<usize>("size", 0).unwrap_err();
        assert!(e.contains("--size"));
    }
}
