//! Minimal flag parsing shared by the subcommands (positional arguments
//! plus `--flag value` pairs; no external dependency).

use std::collections::HashMap;

/// Parsed arguments: positionals in order, flags by name.
pub struct Args {
    /// Positional arguments.
    pub positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parse `argv` for a subcommand that accepts the flags named in
    /// `accepted` (without the leading `--`); any other flag is an error.
    /// Every `--name` consumes the following token as its value. Boolean
    /// flags use the value `"true"` when given bare at the end or followed
    /// by another flag.
    pub fn parse(argv: &[String], accepted: &[&str]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            let tok = &argv[i];
            if let Some(name) = tok.strip_prefix("--") {
                if !accepted.contains(&name) {
                    let known: Vec<String> = accepted.iter().map(|f| format!("--{f}")).collect();
                    return Err(if known.is_empty() {
                        format!("unknown flag --{name} (this command takes no flags)")
                    } else {
                        format!("unknown flag --{name} (accepted: {})", known.join(" "))
                    });
                }
                let value = match argv.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        i += 1;
                        v.clone()
                    }
                    _ => "true".to_string(),
                };
                if flags.insert(name.to_string(), value).is_some() {
                    return Err(format!("duplicate flag --{name}"));
                }
            } else {
                positional.push(tok.clone());
            }
            i += 1;
        }
        Ok(Args { positional, flags })
    }

    /// Positional argument `i`, or an error naming it.
    pub fn pos(&self, i: usize, name: &str) -> Result<&str, String> {
        self.positional
            .get(i)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing <{name}>"))
    }

    /// Optional string flag.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    /// Flag with a default.
    pub fn flag_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.flag(name).unwrap_or(default)
    }

    /// Parsed numeric/typed flag with a default.
    pub fn flag_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for --{name}")),
        }
    }

    /// Boolean presence flag.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[&str] = &["scale", "seed", "hetero", "ratio", "a", "other"];

    fn argv(toks: &[&str]) -> Vec<String> {
        toks.iter().map(|s| s.to_string()).collect()
    }

    fn parse(toks: &[&str]) -> Args {
        Args::parse(&argv(toks), FLAGS).unwrap()
    }

    #[test]
    fn positionals_and_flags_mix() {
        let a = parse(&["pokec", "out.bin", "--scale", "small", "--seed", "7"]);
        assert_eq!(a.pos(0, "kind").unwrap(), "pokec");
        assert_eq!(a.pos(1, "out").unwrap(), "out.bin");
        assert_eq!(a.flag("scale"), Some("small"));
        assert_eq!(a.flag_parse("seed", 0u64).unwrap(), 7);
    }

    #[test]
    fn bare_flags_are_true() {
        let a = parse(&["run", "--hetero", "--ratio", "3:5"]);
        assert!(a.has("hetero"));
        assert_eq!(a.flag("ratio"), Some("3:5"));
    }

    #[test]
    fn missing_positional_is_an_error() {
        let a = parse(&["x"]);
        assert!(a.pos(1, "out").is_err());
    }

    #[test]
    fn duplicate_flags_rejected() {
        assert!(Args::parse(&argv(&["--a", "1", "--a", "2"]), FLAGS).is_err());
    }

    #[test]
    fn unknown_flags_rejected() {
        let err = Args::parse(&argv(&["g.bin", "--bogus", "1"]), FLAGS).err();
        assert!(err.unwrap().starts_with("unknown flag --bogus"));
        let err = Args::parse(&argv(&["g.bin", "--seed", "1"]), &[]).err();
        assert!(err.unwrap().contains("takes no flags"));
    }

    #[test]
    fn flag_parse_reports_bad_values() {
        let a = parse(&["--seed", "xyz"]);
        assert!(a.flag_parse("seed", 0u64).is_err());
        assert_eq!(a.flag_parse("other", 5u32).unwrap(), 5);
    }
}
