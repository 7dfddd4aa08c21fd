//! In-memory spans around the benchmark's calls into each layer, plus
//! counters recorded at the same boundaries. Nothing is written until
//! the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Op id given to spans recorded during set-up.
pub const SETUP_OP: u64 = u64::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name, e.g. `sa.flow`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op the span belongs to ([`SETUP_OP`] during set-up).
    pub op: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans and counters.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counters: BTreeMap<&'static str, (f64, u64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: SETUP_OP,
            counters: BTreeMap::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags later spans with `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`; spans `f` opens nest under it.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        r
    }

    /// Closes spans left open by a panic that unwound through them.
    pub fn close_abandoned(&mut self) {
        let now = self.now();
        for idx in self.open.drain(..) {
            self.spans[idx].end_ns = now;
        }
    }

    /// Total duration of the current op's spans named `name`.
    pub fn op_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .rev()
            .take_while(|s| s.op == self.op)
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Adds `value` to counter `name` (one sample).
    pub fn count(&mut self, name: &'static str, value: f64) {
        let c = self.counters.entry(name).or_insert((0.0, 0));
        c.0 += value;
        c.1 += 1;
    }

    /// Sum of counter `name` (0 when never counted).
    pub fn sum(&self, name: &str) -> f64 {
        self.counters.get(name).map_or(0.0, |c| c.0)
    }

    /// Mean sample of counter `name` (0 when never counted).
    pub fn mean(&self, name: &str) -> f64 {
        self.counters
            .get(name)
            .map_or(0.0, |&(sum, n)| sum / n as f64)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.ns().saturating_sub(c))
            .collect()
    }

    /// Per span name: `(calls, total self ns)`, for spans `keep` selects.
    pub fn self_table(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, (u64, u64)> {
        let mut t = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            if keep(s) {
                let e = t.entry(s.name).or_insert((0, 0));
                e.0 += 1;
                e.1 += own;
            }
        }
        t
    }

    /// Total duration of all spans named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).count() as f64
    }

    /// Writes every span as CSV (`span,parent,op,name,start_ns,end_ns`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span,parent,op,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let op = if s.op == SETUP_OP {
                "setup".to_string()
            } else {
                s.op.to_string()
            };
            writeln!(
                out,
                "{i},{parent},{op},{},{},{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time() {
        let mut t = Tracer::default();
        t.set_op(3);
        t.span("op", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 3));
        let own = t.self_ns();
        assert_eq!(own[0] + own[1] + own[2], spans[0].ns());
        assert!(t.op_ns("a") >= 2_000_000);
        let table = t.self_table(|_| true);
        assert_eq!(table["a"].0, 1);
    }

    #[test]
    fn abandoned_spans_are_closed() {
        let mut t = Tracer::default();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.span("op", |t| t.span("boom", |_| panic!("injected")))
        }));
        assert!(r.is_err());
        t.close_abandoned();
        t.span("next", |_| ());
        assert_eq!(t.spans()[2].parent, None);
    }

    #[test]
    fn counters_sum_and_mean() {
        let mut t = Tracer::default();
        t.count("x", 2.0);
        t.count("x", 4.0);
        assert_eq!(t.sum("x"), 6.0);
        assert_eq!(t.mean("x"), 3.0);
        assert_eq!(t.mean("missing"), 0.0);
    }
}
