//! A minimal JSON model, writer, parser and the versioned `BENCH_*.json` schema.
//!
//! The workspace builds fully offline (no `serde_json`), so the benchmark harness
//! carries its own JSON layer: a [`Json`] value model with a deterministic pretty
//! printer (object keys keep insertion order, floats use Rust's shortest round-trip
//! formatting) and a recursive-descent parser for the subset of JSON the harness emits.
//! Determinism matters: the simulator is seeded, so the same scenario at the same scale
//! produces byte-identical `BENCH_*.json` on every machine, which is what lets CI diff a
//! fresh run against the checked-in baseline.
//!
//! The schema of a benchmark report is versioned ([`SCHEMA_VERSION`]) and enforced by
//! [`validate_report`]; the runner validates every report before writing it, and the
//! scenario round-trip test validates every registered scenario's output.

use std::fmt::Write as _;

/// The version of the `BENCH_*.json` schema emitted by this crate. The validator matches
/// the schema exactly (every documented field is required), so *any* shape change —
/// adding, renaming or removing a field — bumps the version; consumers comparing across
/// versions must regenerate the older report. v2 added
/// `staleness.stable_fallback_gets` (the Adaptive protocol's fall-back counter); v3
/// added `store.live_bytes` (approximate bytes of retained version data); v4 added the `contention` block (lane fast-path
/// hit/miss counts, spine-mutex acquisitions and pipeline-drain spins of the threaded
/// runtime — all zero for simulated scenarios).
pub const SCHEMA_VERSION: u64 = 4;

/// The version of the `MICROBENCH_*.json` schema emitted by `storage_microbench --json`
/// and gated by `compare_bench --microbench`. Distinct from [`SCHEMA_VERSION`]: the
/// microbench report is a flat list of harness-level measurements (ns/op, allocs/op),
/// not a scenario report.
pub const MICROBENCH_SCHEMA_VERSION: u64 = 1;

/// A JSON value. Object keys keep insertion order so output is deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; benchmark counters are well below 2^53, so `f64` is lossless here.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key–value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number from anything convertible to `f64`.
    pub fn num(v: impl Into<f64>) -> Json {
        Json::Num(v.into())
    }

    /// A number from a `u64` counter (lossless for counters below 2^53, which every
    /// metric this crate emits is).
    pub fn u64(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// A string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a non-negative whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises the value as pretty-printed JSON (2-space indent, trailing newline).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(v) => write_number(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, v: f64) {
    if !v.is_finite() {
        // JSON has no NaN/Inf; benchmark metrics never produce them, but never emit
        // invalid JSON if one slips through.
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() < 9e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        // Rust's shortest round-trip float formatting: deterministic across platforms.
        let _ = write!(out, "{v}");
    }
}

fn write_string(out: &mut String, s: &str) {
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

// ---------------------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------------------

/// Parses a JSON document. Returns a readable error with a byte offset on malformed
/// input; trailing content after the top-level value is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let start = self.pos + 1;
                            let hex = self
                                .bytes
                                .get(start..start + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (the input is a &str, so boundaries
                    // are valid).
                    let rest = &self.bytes[self.pos..];
                    let len = std::str::from_utf8(rest)
                        .map_err(|_| "invalid UTF-8")?
                        .chars()
                        .next()
                        .map(char::len_utf8)
                        .unwrap_or(1);
                    s.push_str(std::str::from_utf8(&rest[..len]).unwrap());
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

// ---------------------------------------------------------------------------------------
// Schema validation
// ---------------------------------------------------------------------------------------

/// The required shape of one latency block (all values in microseconds).
const LATENCY_FIELDS: [&str; 7] = ["count", "mean", "p50", "p95", "p99", "p999", "max"];

fn require<'j>(obj: &'j Json, path: &str, key: &str) -> Result<&'j Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("{path}: missing required field {key:?}"))
}

fn require_num(obj: &Json, path: &str, key: &str) -> Result<f64, String> {
    let v = require(obj, path, key)?
        .as_f64()
        .ok_or_else(|| format!("{path}.{key}: expected a number"))?;
    // Every numeric field of the schema is a non-negative quantity (a count, duration,
    // throughput, probability or sweep coordinate). NaN and infinities additionally
    // have no JSON representation, so they would poison the written file.
    if !v.is_finite() {
        return Err(format!("{path}.{key}: expected a finite number, found {v}"));
    }
    if v < 0.0 {
        return Err(format!(
            "{path}.{key}: expected a non-negative number, found {v}"
        ));
    }
    Ok(v)
}

fn require_str(obj: &Json, path: &str, key: &str) -> Result<(), String> {
    require(obj, path, key)?
        .as_str()
        .map(|_| ())
        .ok_or_else(|| format!("{path}.{key}: expected a string"))
}

fn require_bool(obj: &Json, path: &str, key: &str) -> Result<(), String> {
    require(obj, path, key)?
        .as_bool()
        .map(|_| ())
        .ok_or_else(|| format!("{path}.{key}: expected a bool"))
}

fn validate_latency_block(block: &Json, path: &str) -> Result<(), String> {
    for field in LATENCY_FIELDS {
        require_num(block, path, field)?;
    }
    let p50 = require_num(block, path, "p50")?;
    let p95 = require_num(block, path, "p95")?;
    let p99 = require_num(block, path, "p99")?;
    let p999 = require_num(block, path, "p999")?;
    let max = require_num(block, path, "max")?;
    if !(p50 <= p95 && p95 <= p99 && p99 <= p999 && p999 <= max) {
        return Err(format!(
            "{path}: percentiles must be ordered (p50 {p50} <= p95 {p95} <= p99 {p99} <= p999 {p999} <= max {max})"
        ));
    }
    Ok(())
}

/// Validates a `BENCH_*.json` document against schema [`SCHEMA_VERSION`].
///
/// Checks the presence and JSON type of every required field, that percentiles are
/// ordered within each latency block, and that at least one point is present. Unknown
/// extra fields are allowed (the schema is forward extensible).
pub fn validate_report(report: &Json) -> Result<(), String> {
    let version = require_num(report, "$", "schema_version")? as u64;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "$.schema_version: expected {SCHEMA_VERSION}, found {version}"
        ));
    }
    require_str(report, "$", "scenario")?;
    require_str(report, "$", "title")?;
    require_str(report, "$", "x_axis")?;
    require_str(report, "$", "scale")?;
    require_num(report, "$", "seed")?;

    let points = require(report, "$", "points")?
        .as_array()
        .ok_or("$.points: expected an array")?;
    if points.is_empty() {
        return Err("$.points: a report must contain at least one point".into());
    }
    for (i, point) in points.iter().enumerate() {
        validate_point(point, &format!("$.points[{i}]"))?;
    }
    Ok(())
}

fn validate_point(point: &Json, path: &str) -> Result<(), String> {
    require_str(point, path, "label")?;
    require_num(point, path, "x")?;
    require_str(point, path, "protocol")?;

    let config = require(point, path, "config")?;
    for key in [
        "replicas",
        "partitions",
        "clients",
        "storage_shards",
        "keys_per_partition",
        "value_size",
        "zipf_theta",
        "measured_window_s",
    ] {
        require_num(config, &format!("{path}.config"), key)?;
    }
    require_bool(config, &format!("{path}.config"), "replication_batching")?;

    require_num(point, path, "throughput_ops_per_sec")?;

    let ops = require(point, path, "operations")?;
    for key in ["total", "gets", "puts", "rotx", "sessions_reinitialized"] {
        require_num(ops, &format!("{path}.operations"), key)?;
    }

    let latency = require(point, path, "latency_us")?;
    for class in ["all", "get", "put", "rotx"] {
        let block = require(latency, &format!("{path}.latency_us"), class)?;
        validate_latency_block(block, &format!("{path}.latency_us.{class}"))?;
    }

    let blocking = require(point, path, "blocking")?;
    for key in [
        "probability",
        "blocked_operations",
        "avg_block_time_us",
        "clock_wait_time_us",
    ] {
        require_num(blocking, &format!("{path}.blocking"), key)?;
    }

    let staleness = require(point, path, "staleness")?;
    for key in [
        "old_get_fraction",
        "unmerged_get_fraction",
        "old_tx_fraction",
        "unmerged_tx_fraction",
        "stable_fallback_gets",
    ] {
        require_num(staleness, &format!("{path}.staleness"), key)?;
    }

    let network = require(point, path, "network")?;
    for key in [
        "messages_sent",
        "wan_messages",
        "bytes_sent",
        "held_messages",
    ] {
        require_num(network, &format!("{path}.network"), key)?;
    }

    let replication = require(point, path, "replication")?;
    for key in [
        "replicate_sent",
        "batches_sent",
        "heartbeats_sent",
        "stabilization_messages",
        "gc_messages",
        "gc_versions_removed",
        "sessions_aborted",
    ] {
        require_num(replication, &format!("{path}.replication"), key)?;
    }

    let store = require(point, path, "store")?;
    for key in [
        "keys",
        "versions",
        "max_chain_len",
        "gc_removed",
        "live_bytes",
    ] {
        require_num(store, &format!("{path}.store"), key)?;
    }
    require(store, &format!("{path}.store"), "per_shard_versions")?
        .as_array()
        .ok_or_else(|| format!("{path}.store.per_shard_versions: expected an array"))?;

    let contention = require(point, path, "contention")?;
    for key in [
        "lane_fast_path_hits",
        "lane_fast_path_misses",
        "spine_acquisitions",
        "drain_spins",
    ] {
        require_num(contention, &format!("{path}.contention"), key)?;
    }

    let consistency = require(point, path, "consistency")?;
    require_num(consistency, &format!("{path}.consistency"), "violations")?;
    require_bool(consistency, &format!("{path}.consistency"), "converged")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_produces_deterministic_pretty_output() {
        let doc = Json::Obj(vec![
            ("b".into(), Json::u64(2)),
            ("a".into(), Json::num(1.5)),
            (
                "nested".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::str("x\"y")]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let text = doc.to_pretty();
        // Insertion order is preserved; keys are not sorted.
        assert!(text.find("\"b\"").unwrap() < text.find("\"a\"").unwrap());
        assert!(text.contains("1.5"));
        assert!(text.contains("\\\""));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let doc = Json::Obj(vec![
            ("count".into(), Json::u64(12345)),
            ("ratio".into(), Json::num(0.3333333333333333)),
            ("name".into(), Json::str("fig1a — sweep\n\"quoted\"")),
            (
                "points".into(),
                Json::Arr(vec![Json::num(1), Json::num(-2.5), Json::Bool(false)]),
            ),
            ("none".into(), Json::Null),
        ]);
        let parsed = parse(&doc.to_pretty()).expect("writer output parses");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "nul", "{} extra", "\"open"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parser_accepts_escapes_and_numbers() {
        let v = parse(r#"{"s": "aA\n", "n": -1.25e2}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "aA\n");
        assert_eq!(v.get("n").unwrap().as_f64().unwrap(), -125.0);
    }

    #[test]
    fn accessors_are_type_checked() {
        let v = parse(r#"{"n": 3, "s": "x", "b": true, "a": [1]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("s").unwrap().as_u64(), None);
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn validation_rejects_missing_fields_and_bad_percentiles() {
        let err = validate_report(&Json::Obj(vec![])).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");

        let mut block = Json::Obj(
            LATENCY_FIELDS
                .iter()
                .map(|f| (f.to_string(), Json::num(10)))
                .collect(),
        );
        assert!(validate_latency_block(&block, "$").is_ok());
        if let Json::Obj(members) = &mut block {
            for (k, v) in members.iter_mut() {
                if k == "p95" {
                    *v = Json::num(99999);
                }
            }
        }
        let err = validate_latency_block(&block, "$").unwrap_err();
        assert!(err.contains("ordered"), "{err}");
    }
}
