//! In-memory host-time spans recorded around calls into the program's
//! layers.
//!
//! Every span is taken on the benchmark's side of a public call (a
//! `harness`, `workloads`, `serve`, `fleet` or `snap` function or trait
//! method), so the program itself carries no instrumentation. Spans stay
//! in memory until the run ends; [`crate::metrics`] turns them into layer
//! times. Self time of a layer is its span minus the part of that interval
//! its child spans cover, which is how store I/O inside
//! `harness::run_or_resume` and the serve/fleet loop's own work are
//! separated from the calls they make.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Simulated platform of a launch, from `Platform::label` or
/// `BatchService::label`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plat {
    /// SIMT cores only (`BASE`).
    Base,
    /// Unmodified ray-tracing accelerator (`RTA`).
    Rta,
    /// Fixed-function tree traversal accelerator (`TTA`).
    Tta,
    /// TTA+ with μop programs (`TTA+`).
    TtaPlus,
}

impl Plat {
    /// Parses a platform or backend label.
    ///
    /// # Panics
    ///
    /// Panics on a label no platform prints.
    pub fn from_label(label: &str) -> Plat {
        match label {
            "BASE" => Plat::Base,
            "RTA" => Plat::Rta,
            "TTA" => Plat::Tta,
            "TTA+" => Plat::TtaPlus,
            other => panic!("unknown platform label `{other}`"),
        }
    }
}

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One set-up pass: input build, and for `warm-resume` the cold pass.
    Setup,
    /// One timed repetition: first job queued to journal written.
    Rep,
    /// `harness::prepare`, which runs `CacheableExperiment::build_inputs`
    /// on a cache miss.
    Prepare,
    /// `harness::pool::run_ordered` over one repetition's jobs.
    Pool,
    /// `harness::journal::journal_json`.
    Journal,
    /// One pool job, on its worker thread.
    Job,
    /// `*Experiment::session`, or `serve::build_service` plus the arrival
    /// stream for a serving run.
    Open,
    /// `RunSession::step`.
    Step(Plat),
    /// `RunSession::finish`, or the serving summary and accelerator harvest.
    Finish,
    /// `RunSession::export_state`.
    Export,
    /// `RunSession::import_state`.
    Import,
    /// `harness::run_or_resume` with a snapshot store; its self time is
    /// `SnapshotStore::load` and `SnapshotStore::save`.
    Resume,
    /// `serve::serve` or `fleet::run_fleet`; its self time is the
    /// serving loop.
    ServeLoop,
    /// `BatchService::run_batch`.
    RunBatch(Plat),
}

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was timed.
    pub layer: Layer,
    /// Thread the call ran on.
    pub thread: ThreadId,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }

    /// `true` when `other` ran on this span's thread inside its interval.
    pub fn contains(&self, other: &Span) -> bool {
        self.thread == other.thread && self.start <= other.start && other.end <= self.end
    }
}

/// Collects spans from every thread of a run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span of `layer`.
    pub fn time<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let span = Span {
            layer,
            thread: std::thread::current().id(),
            start,
            end: self.now(),
        };
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .push(span);
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .clone()
    }
}

/// Runs `f` inside a span when a recorder is present, and plainly when
/// it is not.
pub fn span<T>(rec: Option<&Arc<Recorder>>, layer: Layer, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => r.time(layer, f),
        None => f(),
    }
}

/// Total length of the union of `[start, end)` intervals.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_nesting() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(vec![(0, 100), (10, 20), (30, 40)]), 100);
    }

    #[test]
    fn nested_spans_are_contained() {
        let rec = Recorder::default();
        rec.time(Layer::Job, || rec.time(Layer::Open, || ()));
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[1].contains(&spans[0]));
        assert!(!spans[0].contains(&spans[1]) || spans[0].start == spans[1].start);
    }
}
