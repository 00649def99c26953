//! Benchmark-side spans around the calls into each layer. Spans stay in
//! memory while the benchmark runs and are written out at the end.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// The spans of one run, all sharing one run id and one time origin.
pub struct Spans {
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(run_id: String) -> Spans {
        Spans {
            run_id,
            origin: Instant::now(),
            spans: Vec::with_capacity(16),
        }
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn seconds(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end - s.start).as_secs_f64()
    }

    /// A span's duration minus the part of it that its children cover.
    fn self_time(&self, id: usize) -> Duration {
        let mut children: Vec<(Duration, Duration)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start, c.end))
            .collect();
        children.sort();
        let mut covered = Duration::ZERO;
        let mut reach = self.spans[id].start;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        let s = &self.spans[id];
        (s.end - s.start).saturating_sub(covered)
    }

    /// Total self time, in seconds, of every span named `name` (0 when the
    /// layer never ran).
    pub fn self_seconds(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_time(i).as_secs_f64())
            .fold(0.0, |a, b| a + b)
    }

    /// One JSON object per span: name, start, end, parent, run id, self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"run":"{}","span":{i},"name":"{}","parent":{parent},"start_ns":{},"end_ns":{},"self_ns":{}}}"#,
                self.run_id,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                self.self_time(i).as_nanos()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new("t".into());
        let root = spans.open("root", None);
        spans.time("child", Some(root), || {
            std::thread::sleep(Duration::from_millis(20))
        });
        std::thread::sleep(Duration::from_millis(5));
        spans.close(root);
        let child = spans.self_seconds("child");
        let own = spans.self_seconds("root");
        assert!(child >= 0.02);
        assert!(own >= 0.005 && own < spans.seconds(root) - 0.019);
        assert_eq!(spans.self_seconds("absent"), 0.0);
    }
}
