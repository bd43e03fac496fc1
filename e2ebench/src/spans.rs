//! Wall-clock spans around the benchmark's calls into each layer.
//!
//! Spans are recorded only on the traced pass and kept in memory; the
//! JSONL file is written once, when the run ends. A disabled recorder
//! (every untimed and timed pass) does nothing but one branch per call.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

use crate::json;

/// One recorded span: nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call` name, e.g. `cloudsim.advance_secs`.
    pub name: Cow<'static, str>,
    /// Index of the enclosing span, `None` for the pass root.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

/// Self time and call count of every span sharing one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    /// Summed duration minus the time covered by child spans, seconds.
    pub self_s: f64,
    /// Number of spans with this name.
    pub calls: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that records nothing (untraced passes).
    pub fn off() -> Self {
        Spans {
            on: false,
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recording recorder (the traced pass).
    pub fn on() -> Self {
        Spans {
            on: true,
            ..Spans::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: impl Into<Cow<'static, str>>) {
        if self.on {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name: name.into(),
                parent: self.open.last().copied(),
                start_ns,
                end_ns: start_ns,
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if self.on {
            let end = self.now_ns();
            let i = self.open.pop().expect("exit without a matching enter");
            self.spans[i].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: impl Into<Cow<'static, str>>, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and calls per span name, name-sorted.
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name.to_string()).or_default();
            e.self_s += (s.end_ns - s.start_ns).saturating_sub(child) as f64 * 1e-9;
            e.calls += 1;
        }
        out
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_jsonl(&self, mut w: impl Write, workload: &str, pass: &str) -> io::Result<()> {
        let (workload, pass) = (json::string(workload), json::string(pass));
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":{},\"workload\":{workload},\"pass\":{pass},\
                 \"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                json::string(&s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::off();
        assert_eq!(s.time("a", || 7), 7);
        s.enter("b");
        s.exit();
        assert!(s.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::on();
        s.enter("root");
        s.time("leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        s.time("leaf", || ());
        s.exit();
        let spans = s.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let t = s.self_times();
        assert_eq!(t["leaf"].calls, 2);
        let root_ns = spans[0].end_ns - spans[0].start_ns;
        let leaves_ns: u64 = spans[1..].iter().map(|x| x.end_ns - x.start_ns).sum();
        let root_self = t["root"].self_s;
        assert!((root_self - (root_ns - leaves_ns) as f64 * 1e-9).abs() < 1e-12);
        assert!(t["leaf"].self_s >= 0.005);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut s = Spans::on();
        s.enter("a\"b");
        s.exit();
        let mut out = Vec::new();
        s.write_jsonl(&mut out, "w", "traced").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("{\"id\":0,\"name\":\"a\\\"b\",\"workload\":\"w\""));
        assert!(text.contains("\"parent\":null"));
    }
}
