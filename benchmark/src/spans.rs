//! The benchmark's own span recorder.
//!
//! Spans are taken from outside the program, around calls into each layer's
//! public functions; nothing under `crates/` is instrumented. A recorder
//! that is not recording still times the call, so the measured loops are
//! the same code in the untraced and the traced run and the ratio of the
//! two is the cost of recording.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::quote;
use crate::stats::Samples;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// Spans of one operation share this identifier.
    op: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// A span that has started and not ended.
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

pub struct Recorder {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    pub fn new(recording: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            recording,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Start a new operation: later spans carry the next identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Start a span that will contain the spans taken until [`Self::exit`].
    pub fn enter(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.recording.then(|| {
            self.spans.push(Span {
                name,
                op: self.op,
                parent: self.open.last().copied(),
                start: started - self.origin,
                end: Duration::ZERO,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, started }
    }

    pub fn exit(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        if let Some(index) = open.index {
            self.spans[index].end = now - self.origin;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(index), "spans must close innermost first");
        }
        now - open.started
    }

    /// Time one call as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let open = self.enter(name);
        let result = f();
        (result, self.exit(open))
    }

    /// Add a span timed elsewhere (another thread) on this recorder's clock.
    pub fn add(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.recording {
            self.spans.push(Span {
                name,
                op: self.op,
                parent: None,
                start: start.saturating_duration_since(self.origin),
                end: end.saturating_duration_since(self.origin),
            });
        }
    }

    /// Durations of every recorded span of that name, in recording order.
    pub fn durations(&self, name: &str) -> Samples {
        let mut samples = Samples::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            samples.push(s.end - s.start);
        }
        samples
    }

    /// Write one JSON object per span. A span's self time is its duration
    /// minus the time its direct children cover.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let duration = s.end - s.start;
            writeln!(
                out,
                "{{\"id\": {i}, \"parent\": {}, \"op\": {}, \"name\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}}}",
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
                quote(s.name),
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                duration.saturating_sub(child_time[i]).as_secs_f64() * 1e6,
            )?;
        }
        out.flush()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_subtracted_from_self_time() {
        let mut rec = Recorder::new(true);
        rec.next_op();
        let outer = rec.enter("outer");
        rec.time("inner", || std::thread::sleep(Duration::from_millis(5)));
        rec.exit(outer);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-spans");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        rec.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<crate::json::Json> = text
            .lines()
            .map(|l| crate::json::Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].get("parent").unwrap().as_f64(), Some(0.0));
        let num = |l: &crate::json::Json, k: &str| l.get(k).unwrap().as_f64().unwrap();
        let outer_total = num(&lines[0], "end_us") - num(&lines[0], "start_us");
        let inner_total = num(&lines[1], "end_us") - num(&lines[1], "start_us");
        assert!(inner_total >= 5_000.0);
        assert!((num(&lines[0], "self_us") - (outer_total - inner_total)).abs() < 0.01);
    }

    #[test]
    fn a_recorder_that_is_off_still_times() {
        let mut rec = Recorder::new(false);
        let ((), d) = rec.time("x", || std::thread::sleep(Duration::from_millis(2)));
        assert!(d >= Duration::from_millis(2));
        assert_eq!(rec.len(), 0);
    }
}
