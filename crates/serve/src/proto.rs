//! The newline-delimited-JSON request/response wire protocol.
//!
//! One request per line, one response line per request, in any order
//! (responses carry the request `id`). The grammar is deliberately
//! *flat*: every value is a string, a number, a boolean, or null —
//! nested objects and arrays are rejected with a typed error. That
//! keeps the hand-rolled parser small enough to audit and the protocol
//! trivially implementable from any language (the jplace payload rides
//! as one JSON-escaped string).
//!
//! ```text
//! {"id":"r1","op":"place","queries":">q1\nACGT...\n","deadline_ms":5000}
//! {"id":"r1","ok":true,"code":"Ok","queries":1,"jplace":"{...}"}
//! {"id":"s1","op":"status"}
//! {"id":"c1","op":"cancel","target":"r1"}
//! ```
//!
//! Response codes (the HTTP-ish contract):
//!
//! | code         | meaning                                              |
//! |--------------|------------------------------------------------------|
//! | `Ok`         | request served                                       |
//! | `BadRequest` | unparsable line / unknown op / missing field         |
//! | `Overloaded` | admission queue full — resubmit later (429 analogue) |
//! | `Deadline`   | per-request deadline expired before completion       |
//! | `Cancelled`  | client-initiated cancellation took effect            |
//! | `Draining`   | daemon is shutting down; no new work admitted        |
//! | `Internal`   | request died inside the engine; daemon keeps serving |

use phylo_obs::json_escape;
use std::collections::BTreeMap;

/// A flat JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Typed response codes; `as_str` spells the wire form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Code {
    Ok,
    BadRequest,
    Overloaded,
    Deadline,
    Cancelled,
    Draining,
    Internal,
}

impl Code {
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Ok => "Ok",
            Code::BadRequest => "BadRequest",
            Code::Overloaded => "Overloaded",
            Code::Deadline => "Deadline",
            Code::Cancelled => "Cancelled",
            Code::Draining => "Draining",
            Code::Internal => "Internal",
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Place the FASTA-formatted queries; optional wall-clock deadline.
    Place { id: String, queries: String, deadline_ms: Option<f64> },
    /// Liveness/readiness probe; answered immediately, never queued.
    Status { id: String },
    /// Cancel an earlier request (same connection) by its id.
    Cancel { id: String, target: String },
}

impl Request {
    pub fn id(&self) -> &str {
        match self {
            Request::Place { id, .. } | Request::Status { id } | Request::Cancel { id, .. } => id,
        }
    }
}

/// Parses one line as a flat JSON object. Order-preserving duplicate
/// keys are rejected (a protocol error, not a last-wins surprise).
pub fn parse_object(line: &str) -> Result<BTreeMap<String, Value>, String> {
    let mut p = Parser { bytes: line.as_bytes(), pos: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut map = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.value()?;
            if map.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate key {key:?}"));
            }
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {:?}", ch(other))),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing bytes after object".to_string());
    }
    Ok(map)
}

/// Parses a request line into a typed [`Request`]. On failure, returns
/// the request id if one could be recovered (so the error response can
/// still be correlated) plus the error detail.
pub fn parse_request(line: &str) -> Result<Request, (Option<String>, String)> {
    let obj = parse_object(line).map_err(|e| (None, e))?;
    let id = match obj.get("id").and_then(Value::as_str) {
        Some(s) if !s.is_empty() => s.to_string(),
        _ => return Err((None, "missing or empty string field \"id\"".to_string())),
    };
    let some_id = |e: String| (Some(id.clone()), e);
    let op = obj
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| some_id("missing string field \"op\"".to_string()))?;
    match op {
        "place" => {
            let queries = obj
                .get("queries")
                .and_then(Value::as_str)
                .ok_or_else(|| some_id("place: missing string field \"queries\"".to_string()))?
                .to_string();
            let deadline_ms = match obj.get("deadline_ms") {
                None => None,
                Some(v) => Some(v.as_num().ok_or_else(|| {
                    some_id("place: \"deadline_ms\" must be a number".to_string())
                })?),
            };
            Ok(Request::Place { id, queries, deadline_ms })
        }
        "status" => Ok(Request::Status { id }),
        "cancel" => {
            let target = obj
                .get("target")
                .and_then(Value::as_str)
                .ok_or_else(|| some_id("cancel: missing string field \"target\"".to_string()))?
                .to_string();
            Ok(Request::Cancel { id, target })
        }
        other => Err(some_id(format!("unknown op {other:?}"))),
    }
}

/// One field of a response line.
pub enum Field<'a> {
    Str(&'a str, &'a str),
    Num(&'a str, f64),
    Int(&'a str, i64),
    Bool(&'a str, bool),
}

/// Renders a response line (no trailing newline). Fields keep the given
/// order — `id`, `ok`, `code` first by convention, payload after.
pub fn render(fields: &[Field]) -> String {
    let mut out = String::from("{");
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match f {
            Field::Str(k, v) => {
                out.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
            }
            Field::Num(k, v) => out.push_str(&format!("\"{}\":{}", json_escape(k), fmt_num(*v))),
            Field::Int(k, v) => out.push_str(&format!("\"{}\":{v}", json_escape(k))),
            Field::Bool(k, v) => out.push_str(&format!("\"{}\":{v}", json_escape(k))),
        }
    }
    out.push('}');
    out
}

/// An error response line for `id` (empty id allowed: unparsable line).
pub fn error_line(id: &str, code: Code, detail: &str) -> String {
    render(&[
        Field::Str("id", id),
        Field::Bool("ok", false),
        Field::Str("code", code.as_str()),
        Field::Str("error", detail),
    ])
}

fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn ch(b: Option<u8>) -> String {
    match b {
        Some(b) => (b as char).to_string(),
        None => "end of line".to_string(),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected {:?}, got {:?}", want as char, ch(other))),
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'{') | Some(b'[') => {
                Err("nested objects/arrays are not part of this protocol".to_string())
            }
            Some(_) => self.number(),
            None => Err("expected a value, got end of line".to_string()),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("expected {lit:?}"))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>().map(Value::Num).map_err(|_| format!("bad number {text:?}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = self
                            .bytes
                            .get(self.pos..self.pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        self.pos += 4;
                        // Surrogates are not paired here; replace them.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape \\{}", ch(other))),
                },
                Some(b) if b < 0x20 => {
                    return Err("unescaped control character in string".to_string())
                }
                Some(b) => {
                    // Multi-byte UTF-8: copy the full sequence.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = (start + len).min(self.bytes.len());
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => {
                            out.push_str(s);
                            self.pos = end;
                        }
                        Err(_) => return Err("invalid UTF-8 in string".to_string()),
                    }
                }
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_request_roundtrips_with_escapes() {
        let line = r#"{"id":"r1","op":"place","queries":">q1\nACGT\n","deadline_ms":250}"#;
        let req = parse_request(line).unwrap();
        assert_eq!(
            req,
            Request::Place {
                id: "r1".into(),
                queries: ">q1\nACGT\n".into(),
                deadline_ms: Some(250.0),
            }
        );
    }

    #[test]
    fn status_and_cancel_parse() {
        assert_eq!(
            parse_request(r#"{"id":"s","op":"status"}"#).unwrap(),
            Request::Status { id: "s".into() }
        );
        assert_eq!(
            parse_request(r#"{"id":"c","op":"cancel","target":"r1"}"#).unwrap(),
            Request::Cancel { id: "c".into(), target: "r1".into() }
        );
    }

    #[test]
    fn malformed_lines_yield_typed_errors_with_recovered_ids() {
        // Unparsable JSON: no id recoverable.
        assert!(parse_request("not json").unwrap_err().0.is_none());
        assert!(parse_request("").unwrap_err().0.is_none());
        // Parsable object, bad request: the id comes back for the error
        // response to correlate with.
        let (id, e) = parse_request(r#"{"id":"r9","op":"explode"}"#).unwrap_err();
        assert_eq!(id.as_deref(), Some("r9"));
        assert!(e.contains("unknown op"));
        let (id, _) = parse_request(r#"{"id":"r9","op":"place"}"#).unwrap_err();
        assert_eq!(id.as_deref(), Some("r9"));
        // Nested payloads are a protocol violation, not a crash.
        assert!(parse_request(r#"{"id":"x","op":"place","queries":{"a":1}}"#).is_err());
        assert!(parse_request(r#"{"id":["x"],"op":"status"}"#).is_err());
        // Duplicate keys are rejected.
        assert!(parse_object(r#"{"a":1,"a":2}"#).is_err());
        // Trailing garbage is rejected.
        assert!(parse_object(r#"{"a":1} extra"#).is_err());
    }

    #[test]
    fn render_escape_roundtrip() {
        let jplace = "{\"tree\": \"((A:1)B:2);\"\n}\ttail\\";
        let line = render(&[
            Field::Str("id", "r1"),
            Field::Bool("ok", true),
            Field::Str("code", Code::Ok.as_str()),
            Field::Int("queries", 3),
            Field::Num("latency_ms", 1.5),
            Field::Str("jplace", jplace),
        ]);
        let obj = parse_object(&line).unwrap();
        assert_eq!(obj["id"], Value::Str("r1".into()));
        assert_eq!(obj["ok"], Value::Bool(true));
        assert_eq!(obj["queries"], Value::Num(3.0));
        assert_eq!(obj["latency_ms"], Value::Num(1.5));
        assert_eq!(obj["jplace"], Value::Str(jplace.into()), "escape must roundtrip byte-exactly");
    }

    #[test]
    fn unicode_and_u_escapes_decode() {
        let obj = parse_object(r#"{"k":"café ≠ café?"}"#).unwrap();
        assert_eq!(obj["k"], Value::Str("café ≠ café?".into()));
    }

    #[test]
    fn error_line_is_parsable_and_typed() {
        let line = error_line("r7", Code::Overloaded, "admission queue full (cap 2)");
        let obj = parse_object(&line).unwrap();
        assert_eq!(obj["ok"], Value::Bool(false));
        assert_eq!(obj["code"], Value::Str("Overloaded".into()));
    }
}
