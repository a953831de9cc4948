//! Parsing of `// analyzer:` directives out of line comments.
//!
//! Grammar (one directive per line comment):
//!
//! ```text
//! // analyzer: hot-path
//! // analyzer: allow(<lint-id>) reason="..."
//! ```
//!
//! `hot-path` attaches to the next `fn` item below it. `allow`
//! suppresses the named lint on its own line and on the next line that
//! carries code. Its `reason` is mandatory — an `allow` without one is
//! itself a finding (`invalid-directive`), and that finding cannot be
//! suppressed.

use crate::lexer::LineComment;
use crate::lints::{Finding, Lint};

/// A well-formed directive with the comment line it came from.
#[derive(Debug, Clone, PartialEq)]
pub enum Directive {
    /// Marks the next `fn`: no alloc / block / panic inside.
    HotPath,
    /// Suppresses `lint` on this line and the next code line.
    Allow { lint: Lint, reason: String },
}

/// Directives plus the malformed ones (already rendered as findings).
#[derive(Debug, Default)]
pub struct ParsedDirectives {
    pub directives: Vec<(u32, Directive)>,
    pub errors: Vec<Finding>,
}

/// Extract directives from a file's line comments. `file` is the
/// workspace-relative path used in error findings.
pub fn parse(file: &str, comments: &[LineComment]) -> ParsedDirectives {
    let mut out = ParsedDirectives::default();
    for c in comments {
        let text = c.text.trim();
        let Some(body) = text.strip_prefix("analyzer:") else {
            continue;
        };
        let body = body.trim();
        match parse_one(body) {
            Ok(d) => out.directives.push((c.line, d)),
            Err(msg) => out.errors.push(Finding {
                lint: Lint::InvalidDirective,
                file: file.to_string(),
                line: c.line,
                function: "<module>".to_string(),
                message: msg,
            }),
        }
    }
    out
}

fn parse_one(body: &str) -> Result<Directive, String> {
    if body == "hot-path" {
        return Ok(Directive::HotPath);
    }
    if let Some(rest) = body.strip_prefix("allow") {
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix('(') else {
            return Err("allow directive needs a parenthesized lint id: allow(<lint>)".to_string());
        };
        let Some(close) = rest.find(')') else {
            return Err("allow directive missing closing parenthesis".to_string());
        };
        let id = rest[..close].trim();
        let Some(lint) = Lint::from_id(id) else {
            return Err(format!("unknown lint id `{id}` in allow directive"));
        };
        if lint.unsuppressible() {
            return Err(format!("lint `{id}` cannot be suppressed"));
        }
        let reason = parse_reason(&rest[close + 1..])?;
        return Ok(Directive::Allow { lint, reason });
    }
    Err(format!(
        "unknown analyzer directive `{}`; expected hot-path or allow(<lint>)",
        body.split_whitespace().next().unwrap_or("")
    ))
}

/// Parse the mandatory ` reason="..."` tail.
fn parse_reason(rest: &str) -> Result<String, String> {
    let rest = rest.trim();
    let Some(rest) = rest.strip_prefix("reason=") else {
        return Err("directive requires reason=\"...\"".to_string());
    };
    let Some(rest) = rest.strip_prefix('"') else {
        return Err("reason must be a double-quoted string".to_string());
    };
    let Some(close) = rest.find('"') else {
        return Err("reason string is unterminated".to_string());
    };
    let reason = rest[..close].trim();
    if reason.is_empty() {
        return Err("reason must not be empty".to_string());
    }
    Ok(reason.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comment(text: &str) -> Vec<LineComment> {
        vec![LineComment {
            line: 1,
            text: text.to_string(),
        }]
    }

    #[test]
    fn parses_all_forms() {
        let p = parse(
            "f.rs",
            &[
                LineComment {
                    line: 1,
                    text: " analyzer: hot-path".into(),
                },
                LineComment {
                    line: 2,
                    text: " analyzer: allow(hot-path-alloc) reason=\"preallocated\"".into(),
                },
                LineComment {
                    line: 3,
                    text: " ordinary comment".into(),
                },
            ],
        );
        assert_eq!(p.directives.len(), 2);
        assert!(p.errors.is_empty());
        assert_eq!(
            p.directives[1].1,
            Directive::Allow {
                lint: Lint::HotPathAlloc,
                reason: "preallocated".into()
            }
        );
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let p = parse("f.rs", &comment(" analyzer: allow(nested-lock)"));
        assert_eq!(p.directives.len(), 0);
        assert_eq!(p.errors.len(), 1);
        assert_eq!(p.errors[0].lint, Lint::InvalidDirective);
        assert!(p.errors[0].message.contains("reason"));
    }

    #[test]
    fn unknown_lint_is_rejected() {
        let p = parse("f.rs", &comment(" analyzer: allow(made-up) reason=\"x\""));
        assert_eq!(p.errors.len(), 1);
        assert!(p.errors[0].message.contains("made-up"));
    }

    #[test]
    fn invalid_directive_itself_cannot_be_allowed() {
        let p = parse(
            "f.rs",
            &comment(" analyzer: allow(invalid-directive) reason=\"no\""),
        );
        assert_eq!(p.errors.len(), 1);
        assert!(p.errors[0].message.contains("cannot be suppressed"));
    }

    #[test]
    fn empty_reason_is_rejected() {
        let p = parse(
            "f.rs",
            &comment(" analyzer: allow(nested-lock) reason=\"  \""),
        );
        assert_eq!(p.errors.len(), 1);
    }
}
