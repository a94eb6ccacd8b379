//! In-memory span recorder for the traced pass.
//!
//! The benchmark measures every layer *from outside*: a span is opened
//! around each call into a layer's public function and closed when it
//! returns. Spans nest (`pass` → `cell` → `sim.tagged.run` …); a layer's
//! self time is its span's duration minus the part its children cover.
//! Counts taken at the same boundaries (instructions retired, programs
//! lowered) ride in [`Tracer::add`], so ratios such as ns per instruction
//! divide two numbers measured at the same place.
//!
//! A disabled tracer reads no clock and records nothing, so the gen
//! pipeline can run the same code in timed and traced passes.

use std::collections::BTreeMap;
use std::time::Instant;

use tyr_stats::json::{self, Json};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name (`sim.tagged.run`, `dfg.lower_tagged`, …).
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The cell being run (spans of one cell share it); `u32::MAX` outside
    /// any cell.
    pub cell: u32,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Σ duration.
    pub total_ns: u64,
    /// Σ duration not covered by child spans.
    pub self_ns: u64,
    /// Number of spans.
    pub count: u64,
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    cell: u32,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Self {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            cell: u32::MAX,
            counts: BTreeMap::new(),
        }
    }

    /// A tracer that records nothing and reads no clock.
    pub fn off() -> Self {
        Tracer { on: false, ..Tracer::on() }
    }

    /// Names the cell the following spans belong to.
    pub fn set_cell(&mut self, cell: u32) {
        self.cell = cell;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, cell: self.cell });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        out
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Closes every span opened beyond `depth` — after a panic unwound
    /// through [`Tracer::span`] and left them open.
    pub fn unwind_to(&mut self, depth: usize) {
        while self.stack.len() > depth {
            let idx = self.stack.pop().expect("non-empty");
            self.spans[idx as usize].end_ns = self.now_ns();
        }
    }

    /// Adds `n` to the count called `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// The count called `name` (0 if never added to).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Totals per span name, over the spans below the first span called
    /// `root` (the root itself included).
    pub fn totals_under(&self, root: &str) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        let Some(root_idx) = self.spans.iter().position(|s| s.name == root) else { return out };
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut inside = vec![false; self.spans.len()];
        // Spans are pushed in start order, so a parent precedes its children.
        for (i, s) in self.spans.iter().enumerate() {
            inside[i] = i == root_idx || s.parent.is_some_and(|p| inside[p as usize]);
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        for (i, s) in self.spans.iter().enumerate().filter(|&(i, _)| inside[i]) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
            t.count += 1;
        }
        out
    }

    /// Σ duration of the spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 =
            self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum();
        ns as f64 / 1e9
    }

    /// The spans and counts as one JSON document (`cells[i]` names cell
    /// `i`).
    pub fn to_json(&self, workload: &str, cells: &[String]) -> String {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), json::str(s.name)),
                    ("start_ns".into(), json::num(s.start_ns)),
                    ("end_ns".into(), json::num(s.end_ns)),
                    ("parent".into(), s.parent.map_or(Json::Null, |p| json::num(u64::from(p)))),
                    (
                        "cell_id".into(),
                        cells.get(s.cell as usize).map_or(Json::Null, |c| json::str(c.as_str())),
                    ),
                ])
            })
            .collect();
        let counts = self.counts.iter().map(|(k, v)| (k.to_string(), json::num(*v))).collect();
        Json::Obj(vec![
            ("schema".into(), json::str("tyr-benchmarks-trace/v1")),
            ("workload".into(), json::str(workload)),
            ("spans".into(), Json::Arr(spans)),
            ("counts".into(), Json::Obj(counts)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < u128::from(us) {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::on();
        t.span("pass", |t| {
            t.set_cell(0);
            t.span("cell", |t| {
                spin(200);
                t.span("sim.tagged.run", |_| spin(1_000));
                t.span("workloads.check", |_| spin(300));
            });
        });
        let totals = t.totals_under("pass");
        let cell = totals["cell"];
        let run = totals["sim.tagged.run"];
        let check = totals["workloads.check"];
        assert_eq!(cell.self_ns, cell.total_ns - run.total_ns - check.total_ns);
        assert!(cell.self_ns >= 200_000 && run.self_ns >= 1_000_000);
        assert_eq!(run.self_ns, run.total_ns);
        // Self times below the root add up to the root's duration.
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, totals["pass"].total_ns);
    }

    #[test]
    fn spans_outside_the_root_are_excluded() {
        let mut t = Tracer::on();
        t.span("bench.parity", |_| spin(50));
        t.span("pass", |t| t.span("cell", |_| spin(50)));
        let totals = t.totals_under("pass");
        assert!(!totals.contains_key("bench.parity"));
        assert_eq!(totals["cell"].count, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span("pass", |t| {
            t.add("n", 3);
            7
        });
        assert_eq!((v, t.totals_under("pass").len(), t.count("n")), (7, 0, 0));
    }

    #[test]
    fn json_names_cells_and_parents() {
        let mut t = Tracer::on();
        t.span("pass", |t| {
            t.set_cell(0);
            t.span("cell", |t| t.add("sim.tagged.instrs", 5));
        });
        let doc = Json::parse(&t.to_json("w", &["dmv/TYR".to_string()])).expect("valid json");
        let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
        assert_eq!(spans[1].get("cell_id").and_then(Json::as_str), Some("dmv/TYR"));
        assert_eq!(spans[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            doc.get("counts").and_then(|c| c.get("sim.tagged.instrs")).and_then(Json::as_f64),
            Some(5.0)
        );
    }
}
