//! User labels: the answers to JIM's Boolean membership queries.

use jim_json::Json;
use std::fmt;

/// The answer a user gives about one candidate tuple — the paper's `+` / `−`
/// annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// The tuple belongs to the desired join result.
    Positive,
    /// The tuple does not belong to the desired join result.
    Negative,
}

impl Label {
    /// True iff positive.
    pub fn is_positive(self) -> bool {
        self == Label::Positive
    }

    /// The opposite label.
    pub fn flip(self) -> Label {
        match self {
            Label::Positive => Label::Negative,
            Label::Negative => Label::Positive,
        }
    }

    /// Build from a boolean (`true` = positive).
    pub fn from_bool(b: bool) -> Label {
        if b {
            Label::Positive
        } else {
            Label::Negative
        }
    }

    /// Decode a label as the wire, the journal and transcripts carry it:
    /// `"+"`, `"-"`, `"positive"`, `"negative"`, `"yes"`, `"no"`, `"y"`,
    /// `"n"`, `"true"`, `"false"` (case-insensitive) or a JSON boolean.
    /// Labels are written as `"+"`/`"-"`.
    pub fn from_json(value: &Json) -> Result<Label, String> {
        if let Some(b) = value.as_bool() {
            return Ok(Label::from_bool(b));
        }
        match value.as_str().map(str::to_ascii_lowercase).as_deref() {
            Some("+" | "positive" | "yes" | "y" | "true") => Ok(Label::Positive),
            Some("-" | "negative" | "no" | "n" | "false") => Ok(Label::Negative),
            _ => Err(format!("bad label {value}; use \"+\" or \"-\"")),
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Label::Positive => "+",
            Label::Negative => "-",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_and_bool() {
        assert_eq!(Label::Positive.flip(), Label::Negative);
        assert_eq!(Label::Negative.flip(), Label::Positive);
        assert_eq!(Label::from_bool(true), Label::Positive);
        assert!(Label::Positive.is_positive());
        assert!(!Label::Negative.is_positive());
    }

    #[test]
    fn display() {
        assert_eq!(Label::Positive.to_string(), "+");
        assert_eq!(Label::Negative.to_string(), "-");
    }
}
