//! Hand-written JSON output: string escaping and number formatting.
//! The benchmark writes only flat records, so no serializer is needed.

use std::fmt::Write as _;

/// `s` as a quoted JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `x` as a JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (which JSON cannot hold) become
/// `null`.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(string("l1\nl2\t\r"), "\"l1\\nl2\\t\\r\"");
        assert_eq!(string("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
        assert_eq!(string("µs → ok"), "\"µs → ok\"");
    }

    #[test]
    fn numbers_keep_their_digits_and_reject_non_finite() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }
}
