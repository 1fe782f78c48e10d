//! Minimal hand-rolled JSON emission — serde-free so the workspace stays
//! offline-buildable (no network, no proc-macro dependencies).
//!
//! The library's observability types ([`crate::budget`] spend reports,
//! `nd-core`'s `PrepareStats`, `nd-serve`'s `MetricsSnapshot`) and the
//! bench harness all need to print machine-readable snapshots; this module
//! gives them one shared writer instead of N ad-hoc `format!` dialects.
//!
//! Only emission is provided (no parsing): the workspace produces JSON for
//! external tooling, it never consumes it.
//!
//! ```
//! use nd_graph::json::JsonObject;
//! let mut o = JsonObject::new();
//! o.field_u64("count", 3).field_str("kind", "test");
//! assert_eq!(o.finish(), r#"{"count":3,"kind":"test"}"#);
//! ```

use std::fmt::Write as _;

/// Escape a string for inclusion inside JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Format an `f64` as a JSON number (JSON has no NaN/Infinity: those are
/// emitted as `null`).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Incremental `{...}` builder.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    pub fn new() -> JsonObject {
        JsonObject { buf: String::new() }
    }

    fn key(&mut self, k: &str) -> &mut String {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        let _ = write!(self.buf, "\"{}\":", escape(k));
        &mut self.buf
    }

    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    pub fn field_f64(&mut self, k: &str, v: f64) -> &mut Self {
        let n = number(v);
        self.key(k).push_str(&n);
        self
    }

    pub fn field_bool(&mut self, k: &str, v: bool) -> &mut Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        let s = format!("\"{}\"", escape(v));
        self.key(k).push_str(&s);
        self
    }

    pub fn field_null(&mut self, k: &str) -> &mut Self {
        self.key(k).push_str("null");
        self
    }

    /// Splice a pre-rendered JSON value (nested object or array).
    pub fn field_raw(&mut self, k: &str, raw: &str) -> &mut Self {
        self.key(k).push_str(raw);
        self
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Incremental `[...]` builder.
#[derive(Debug, Default)]
pub struct JsonArray {
    buf: String,
}

impl JsonArray {
    pub fn new() -> JsonArray {
        JsonArray { buf: String::new() }
    }

    fn sep(&mut self) -> &mut String {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        &mut self.buf
    }

    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        let _ = write!(self.sep(), "{v}");
        self
    }

    pub fn push_str(&mut self, v: &str) -> &mut Self {
        let s = format!("\"{}\"", escape(v));
        self.sep().push_str(&s);
        self
    }

    /// Splice a pre-rendered JSON value.
    pub fn push_raw(&mut self, raw: &str) -> &mut Self {
        self.sep().push_str(raw);
        self
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn finish(self) -> String {
        format!("[{}]", self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_fields() {
        let mut o = JsonObject::new();
        o.field_u64("a", 1)
            .field_str("b", "x\"y\\z\n")
            .field_bool("c", true)
            .field_null("d")
            .field_f64("e", 1.5)
            .field_f64("nan", f64::NAN);
        assert_eq!(
            o.finish(),
            r#"{"a":1,"b":"x\"y\\z\n","c":true,"d":null,"e":1.5,"nan":null}"#
        );
    }

    #[test]
    fn nested_and_arrays() {
        let mut inner = JsonArray::new();
        inner.push_u64(1).push_u64(2).push_str("three");
        let mut o = JsonObject::new();
        o.field_raw("xs", &inner.finish());
        assert_eq!(o.finish(), r#"{"xs":[1,2,"three"]}"#);
        assert_eq!(JsonArray::new().finish(), "[]");
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn control_chars_escaped() {
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn keys_are_escaped_too() {
        let mut o = JsonObject::new();
        o.field_u64("a\"b\\c", 1);
        assert_eq!(o.finish(), r#"{"a\"b\\c":1}"#);
    }

    #[test]
    fn unicode_passes_through_raw() {
        // JSON strings carry raw UTF-8; only controls and "/\ are escaped.
        assert_eq!(escape("ε≤½ — naïve"), "ε≤½ — naïve");
        let mut o = JsonObject::new();
        o.field_str("query", "dist(x,y) ≤ 2 ∧ Blue(y)");
        assert_eq!(o.finish(), "{\"query\":\"dist(x,y) ≤ 2 ∧ Blue(y)\"}");
    }

    #[test]
    fn deep_nesting_via_raw_splices() {
        let mut leaf = JsonObject::new();
        leaf.field_str("note", "tab\there");
        let mut mid = JsonObject::new();
        mid.field_raw("leaf", &leaf.finish());
        let mut arr = JsonArray::new();
        arr.push_raw(&mid.finish()).push_u64(7);
        let mut root = JsonObject::new();
        root.field_raw("items", &arr.finish())
            .field_bool("ok", true);
        assert_eq!(
            root.finish(),
            r#"{"items":[{"leaf":{"note":"tab\there"}},7],"ok":true}"#
        );
    }

    #[test]
    fn numbers_render_as_json() {
        assert_eq!(number(-0.5), "-0.5");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(f64::NEG_INFINITY), "null");
        let mut o = JsonObject::new();
        o.field_f64("tiny", 1e-9);
        assert_eq!(o.finish(), r#"{"tiny":0.000000001}"#);
    }
}
