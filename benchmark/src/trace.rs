//! Spans recorded by the benchmark's own code around its calls into the program.
//!
//! One operation in 64 of the traced segment gets a root span with three children:
//!
//! * `client.submit` — inside `ClientPort::submit`: encode, frame and socket write on
//!   TCP, the hand-off into the server's inbox on the channel transport;
//! * `client.wait` — from the return of `submit` to the return of the `recv_timeout`
//!   that delivered the reply: everything the cluster did, plus the wake-up back;
//! * `client.process_reply` — inside `Client::process_reply`.
//!
//! The root's self time (its duration minus its children) is the harness's own
//! bookkeeping between receiving a reply and handing it to the session. Spans are kept
//! in memory and written when the run ends. Times are nanoseconds since the start of
//! the first measured segment.

use crate::json::Json;
use crate::stats::median;
use crate::workload::OpKind;
use std::path::Path;

#[derive(Clone, Debug)]
pub struct Span {
    /// The operation's number within its session; with `session`, the span identifier
    /// its children share.
    pub op: u64,
    pub session: usize,
    pub kind: OpKind,
    pub start_ns: f64,
    pub submitted_ns: f64,
    pub reply_ns: f64,
    pub process_ns: f64,
    pub end_ns: f64,
}

impl Span {
    /// Whether the reply arrived: an unanswered operation leaves an open span.
    fn closed(&self) -> bool {
        self.end_ns.is_finite()
    }

    fn children(&self) -> [(&'static str, f64, f64); 3] {
        [
            ("client.submit", self.start_ns, self.submitted_ns),
            ("client.wait", self.submitted_ns, self.reply_ns),
            ("client.process_reply", self.process_ns, self.end_ns),
        ]
    }
}

/// Median duration in microseconds of each child span, in `children()` order.
pub fn child_medians_us(spans: &[Span]) -> [f64; 3] {
    let mut out = [f64::NAN; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let durations: Vec<f64> = spans
            .iter()
            .filter(|s| s.closed())
            .map(|s| {
                let (_, from, to) = s.children()[i];
                (to - from) / 1000.0
            })
            .collect();
        *slot = median(&durations);
    }
    out
}

/// Writes the spans of one workload as `trace_<workload>.json` under `dir`.
pub fn write(dir: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let span_json = |s: &Span| {
        let id = format!("{}-{}", s.session, s.op);
        let children = s
            .children()
            .iter()
            .map(|&(name, from, to)| {
                Json::obj([
                    ("name", Json::str(name)),
                    ("parent", Json::str(id.clone())),
                    ("start_ns", Json::num(from)),
                    ("end_ns", Json::num(to)),
                ])
            })
            .collect();
        Json::obj([
            ("id", Json::str(id.clone())),
            ("name", Json::str("op")),
            ("kind", Json::str(format!("{:?}", s.kind).to_lowercase())),
            ("session", Json::num(s.session as f64)),
            ("start_ns", Json::num(s.start_ns)),
            ("end_ns", Json::num(s.end_ns)),
            ("children", Json::Arr(children)),
        ])
    };
    let doc = Json::obj([
        ("workload", Json::str(workload)),
        (
            "sampled_one_in",
            Json::num(crate::driver::TRACE_EVERY as f64),
        ),
        (
            "time_base",
            Json::str("nanoseconds since the start of the first measured segment"),
        ),
        (
            "spans",
            Json::Arr(spans.iter().filter(|s| s.closed()).map(span_json).collect()),
        ),
    ]);
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("trace_{workload}.json")), doc.to_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, start: f64, submitted: f64, reply: f64, process: f64, end: f64) -> Span {
        Span {
            op,
            session: 1,
            kind: OpKind::Get,
            start_ns: start,
            submitted_ns: submitted,
            reply_ns: reply,
            process_ns: process,
            end_ns: end,
        }
    }

    #[test]
    fn medians_skip_open_spans_and_files_round_trip() {
        let spans = vec![
            span(64, 0.0, 2_000.0, 30_000.0, 30_500.0, 31_000.0),
            span(128, 0.0, 4_000.0, 50_000.0, 50_100.0, 50_700.0),
            span(192, 0.0, 9_000.0, f64::NAN, f64::NAN, f64::NAN),
        ];
        let [submit, wait, process] = child_medians_us(&spans);
        assert_eq!(submit, 3.0);
        assert_eq!(wait, 37.0);
        assert!((process - 0.55).abs() < 1e-9);
        assert!(child_medians_us(&[]).iter().all(|m| m.is_nan()));

        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/unit-test-trace");
        write(&dir, "unit", &spans).unwrap();
        let text = std::fs::read_to_string(dir.join("trace_unit.json")).unwrap();
        let doc = crate::json::parse(&text).unwrap();
        let written = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(written.len(), 2);
        assert_eq!(written[0].get("id").unwrap().as_str(), Some("1-64"));
        let children = written[0].get("children").unwrap().as_array().unwrap();
        assert_eq!(children.len(), 3);
        assert_eq!(children[1].get("parent").unwrap().as_str(), Some("1-64"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
