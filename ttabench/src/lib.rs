//! The repository's benchmark: four workloads that each load one layer of
//! the TTA reproduction, end-to-end host and simulated metrics measured
//! with tracing off, and per-layer metrics from a separate traced run.
//! See `README.md` beside this crate for the workloads, the metrics and
//! what each should move.
//!
//! [`execute`] runs one workload: set-up passes, then one check
//! repetition on up to two pool workers, then timed repetitions on one
//! worker for the requested number of seconds. Every repetition's journal
//! must be byte-identical to the check repetition's (for `warm-resume`, to
//! the cold pass's); a panic or a differing row counts as a failed run.

pub mod metrics;
pub mod spans;
pub mod suite;
pub mod timed;

use std::sync::Arc;
use std::time::Instant;

use workloads::RunResult;

use crate::spans::{Recorder, Span};
use crate::suite::{Bench, Job, Rep};

/// Fewest set-up passes per invocation; `setup_s` is their median.
pub const SETUP_PASSES: usize = 5;
/// Set-up passes continue until they have taken this long, so that a
/// set-up of a few milliseconds still gets a steady median.
pub const SETUP_SECONDS: f64 = 1.0;
/// Fewest timed repetitions, even past the time limit.
pub const MIN_REPS: usize = 3;
/// Pool workers of the timed repetitions. On a host that lends the
/// benchmark two hardware threads, a second worker contends with the
/// first, and by how much changes with which jobs happen to run together.
pub const TIMED_WORKERS: usize = 1;
/// Each job's host time is read at this quantile of the timed
/// repetitions. Noise on a shared host only adds time, and it comes in
/// phases of seconds to minutes: a single worker runs either at a steady
/// contended speed or, while its neighbours idle, faster by up to 1.7x.
/// A median flips between the two with the share of idle phases in a run;
/// this quantile, taken job by job, stays on the contended speed.
pub const HOST_QUANTILE: f64 = 0.9;

/// Timing of one repetition.
#[derive(Debug, Clone)]
pub struct Timing {
    /// First job queued to journal written, seconds.
    pub wall: f64,
    /// Host time of each job, seconds.
    pub job_secs: Vec<f64>,
    /// Whether spans were recorded.
    pub traced: bool,
    /// Peak resident set during the repetition, MB.
    pub peak_rss_mb: f64,
}

/// Everything one invocation measured.
#[derive(Debug)]
pub struct Outcome {
    /// The runs, with inputs attached.
    pub jobs: Vec<Job>,
    /// The rows every repetition must reproduce.
    pub reference: Vec<RunResult>,
    /// Pool workers of the timed repetitions ([`TIMED_WORKERS`]).
    pub workers: usize,
    /// Seconds of each set-up pass.
    pub setup_secs: Vec<f64>,
    /// Every timed repetition.
    pub timings: Vec<Timing>,
    /// `harness::prepare` calls per set-up pass.
    pub lookups: usize,
    /// Of those, calls that built inputs.
    pub builds: usize,
    /// Size of the reference journal, bytes.
    pub journal_bytes: usize,
    /// Size of the snapshot store the timed repetitions read, bytes.
    pub snapshot_bytes: u64,
    /// Runs attempted.
    pub attempted: usize,
    /// Runs that panicked or whose journal row differed.
    pub failed: usize,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Spans of the traced repetitions and set-up passes.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// The repetitions measured with tracing off.
    pub fn untraced(&self) -> impl Iterator<Item = &Timing> {
        self.timings.iter().filter(|t| !t.traced)
    }

    /// Counts `rep` against the reference rows.
    fn check(&mut self, rep: &Rep, reference_journal: &str, what: &str) {
        self.attempted += self.jobs.len();
        let mut bad = rep.panics.len();
        for msg in &rep.panics {
            self.failures.push(format!("{what}: panic: {msg}"));
        }
        if rep.panics.is_empty() && rep.journal != reference_journal {
            let row = |r: &RunResult| harness::journal::journal_json("", std::slice::from_ref(r));
            for (i, (a, b)) in rep.results.iter().zip(&self.reference).enumerate() {
                if row(a) != row(b) {
                    bad += 1;
                    self.failures
                        .push(format!("{what}: row {i} (`{}`) differs", a.label));
                }
            }
            bad += rep.results.len().abs_diff(self.reference.len());
        }
        self.failed += bad;
    }
}

/// Runs `bench` for `seconds` of timed repetitions on [`TIMED_WORKERS`],
/// after one untimed check repetition on `bench.workers` that also warms
/// the inputs' pages and the allocator. With `trace`, every set-up pass
/// and every second timed repetition record spans; the others stay
/// untraced so the tracing overhead can be measured.
///
/// # Panics
///
/// Panics when set-up fails (inputs cannot be built, or the cold pass of
/// `warm-resume` fails): there is then nothing to measure.
pub fn execute(bench: &Bench, seconds: f64, trace: bool) -> Outcome {
    let rec = trace.then(|| Arc::new(Recorder::default()));
    let mut setup_secs = Vec::new();
    let mut prepared = None;
    while setup_secs.len() < SETUP_PASSES || setup_secs.iter().sum::<f64>() < SETUP_SECONDS {
        let t0 = Instant::now();
        let p = bench.setup(setup_secs.len(), rec.as_ref());
        setup_secs.push(t0.elapsed().as_secs_f64());
        // Only the last pass's store is read; drop the others' files.
        if let Some(old) = prepared.replace(p).and_then(|p: suite::Prepared| p.store) {
            let _ = std::fs::remove_dir_all(old.dir());
        }
    }
    let prepared = prepared.expect("at least one set-up pass");
    let mut out = Outcome {
        jobs: prepared.jobs.clone(),
        reference: Vec::new(),
        workers: TIMED_WORKERS,
        setup_secs,
        timings: Vec::new(),
        lookups: prepared.lookups,
        builds: prepared.builds,
        journal_bytes: 0,
        snapshot_bytes: prepared
            .store
            .as_ref()
            .map_or(0, |s| suite::dir_bytes(s.dir())),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        spans: Vec::new(),
    };
    let check = bench.rep(&prepared, bench.workers, None);
    let reference = match &prepared.cold {
        Some(cold) => {
            out.reference = cold.clone();
            harness::journal::journal_json(bench.workload.name(), cold)
        }
        None => {
            out.reference = check.results.clone();
            check.journal.clone()
        }
    };
    out.check(
        &check,
        &reference,
        &format!("{}-worker check repetition", bench.workers),
    );

    let t0 = Instant::now();
    let mut i = 0;
    while i < MIN_REPS || t0.elapsed().as_secs_f64() < seconds {
        let traced = trace && i % 2 == 1;
        reset_peak_rss();
        let rep = bench.rep(&prepared, TIMED_WORKERS, rec.as_ref().filter(|_| traced));
        let peak_rss_mb = peak_rss_mb();
        out.check(&rep, &reference, &format!("repetition {i}"));
        out.timings.push(Timing {
            wall: rep.wall,
            job_secs: rep.job_secs,
            traced,
            peak_rss_mb,
        });
        i += 1;
    }
    out.journal_bytes = reference.len();
    out.spans = rec.map(|r| r.spans()).unwrap_or_default();
    out
}

/// Returns freed heap pages to the system, then resets this process's
/// peak resident set to its current one, so that [`peak_rss_mb`] reads
/// the peak of what runs next rather than memory the allocator kept from
/// earlier work. Without Linux's `clear_refs` the peak stays the
/// process's lifetime peak.
fn reset_peak_rss() {
    trim_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers, may be called at
    // any time from any thread, and only releases free heap memory.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// Peak resident set size of this process (`VmHWM`), MB.
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `VmHWM` line (not Linux).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("peak RSS needs /proc/self/status (Linux)");
    kb / 1024.0
}

/// Machine context reported beside every result. It never scales a
/// metric.
#[derive(Debug, Clone)]
pub struct Context {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Pool workers of the timed repetitions.
    pub workers: usize,
    /// Pool workers of the check repetition and of set-up.
    pub check_workers: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Median of three runs of a fixed integer loop, seconds.
    pub calibration_s: f64,
}

impl Context {
    /// Probes the machine.
    pub fn probe(workers: usize, check_workers: usize) -> Context {
        let times: Vec<f64> = (0..3).map(|_| calibration_loop()).collect();
        Context {
            nproc: available_parallelism(),
            workers,
            check_workers,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            calibration_s: metrics::median(&times),
        }
    }

    /// One JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"workers\": {}, \"check_workers\": {}, \"profile\": \"{}\", \"calibration_s\": {}}}",
            self.nproc, self.workers, self.check_workers, self.profile, self.calibration_s
        )
    }
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Times 2^24 steps of a xorshift generator.
fn calibration_loop() -> f64 {
    let t0 = Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
    for _ in 0..1u32 << 24 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64()
}
