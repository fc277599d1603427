//! The workspace's one JSON writer (the workspace has no serde).
//!
//! [`JsonWriter`] appends compact JSON to one growing buffer: no whitespace,
//! strings escaped by [`json_string`]'s rule, and one number rule under
//! which non-finite values become `null`. The server's protocol replies and
//! the compact form of a [`crate::TelemetrySnapshot`] are written through
//! it; the pretty `fd-telemetry/v1` export shares its string and number
//! rules.

use std::fmt::Write as _;

/// A compact JSON writer. Commas are placed automatically: a key or a
/// value that follows a finished value at the same level gets one.
///
/// ```
/// use fd_telemetry::JsonWriter;
///
/// let mut w = JsonWriter::with_capacity(64);
/// w.begin_object().key("ok").bool(true).key("n").number(0.5);
/// w.key("xs").begin_array().uint(1).uint(2).end_array().end_object();
/// assert_eq!(w.finish(), r#"{"ok":true,"n":0.5,"xs":[1,2]}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// A value was just finished, so the next key or element needs a comma.
    comma: bool,
}

impl JsonWriter {
    /// A writer whose buffer holds `bytes` before it grows.
    pub fn with_capacity(bytes: usize) -> JsonWriter {
        JsonWriter { out: String::with_capacity(bytes), comma: false }
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        escape_into(&mut self.out, key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes a string value.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.separate();
        escape_into(&mut self.out, s);
        self.finished()
    }

    /// Writes a number: integral values below 1e15 without a fraction, and
    /// non-finite values as `null` (JSON has no NaN/Infinity).
    pub fn number(&mut self, v: f64) -> &mut Self {
        self.separate();
        number_into(&mut self.out, v);
        self.finished()
    }

    /// Writes an unsigned integer exactly.
    pub fn uint(&mut self, v: u64) -> &mut Self {
        self.separate();
        let _ = write!(self.out, "{v}");
        self.finished()
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.separate();
        self.out.push_str(if b { "true" } else { "false" });
        self.finished()
    }

    /// Writes an already rendered JSON value verbatim.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.separate();
        self.out.push_str(json);
        self.finished()
    }

    /// Writes `"key":{"name":number,...}` from `(name, number)` entries.
    pub fn number_map<K: AsRef<str>>(
        &mut self,
        key: &str,
        entries: impl IntoIterator<Item = (K, f64)>,
    ) -> &mut Self {
        self.key(key).begin_object();
        for (name, v) in entries {
            self.key(name.as_ref()).number(v);
        }
        self.end_object()
    }

    /// The written JSON.
    pub fn finish(self) -> String {
        self.out
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
    }

    fn finished(&mut self) -> &mut Self {
        self.comma = true;
        self
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.separate();
        self.out.push(bracket);
        self.comma = false;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.finished()
    }
}

/// Escapes a string as a JSON string literal (quotes included): quotes,
/// backslashes, and control characters.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Formats an `f64` as a JSON number by [`JsonWriter::number`]'s rule.
pub(crate) fn json_number(v: f64) -> String {
    let mut out = String::new();
    number_into(&mut out, v);
    out
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn number_into(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_number_handles_non_finite() {
        assert_eq!(json_number(1.0), "1");
        assert_eq!(json_number(0.25), "0.25");
        assert_eq!(json_number(-0.0), "0");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    #[test]
    fn writer_places_commas_at_every_level() {
        let mut w = JsonWriter::default();
        w.begin_object();
        w.key("a").begin_array().end_array();
        w.key("b").begin_object().end_object();
        w.key("c").begin_array().begin_object().key("x").uint(1).end_object();
        w.begin_object().end_object().string("s\"").number(f64::NAN).end_array();
        w.number_map("m", [("k", 2.5), ("l", 3.0)]).key("r").raw("[1]");
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"a":[],"b":{},"c":[{"x":1},{},"s\"",null],"m":{"k":2.5,"l":3},"r":[1]}"#
        );
    }
}
