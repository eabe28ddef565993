//! End-to-end and per-layer metrics of one benchmark invocation.
//!
//! Host times come from the untraced repetitions (end to end, each job
//! read at [`HOST_QUANTILE`]) or from the spans of the traced ones (per
//! layer, medians). Simulated metrics and work counters are sums over one
//! repetition's journal rows and repeat exactly.

use gpu_sim::stats::percentile;
use workloads::RunResult;

use crate::spans::{union_ns, Layer, Plat, Span};
use crate::suite::{Job, INTERACTIVE_SLO_CYCLES};
use crate::{Outcome, HOST_QUANTILE};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q` quantile of `v`, interpolating linearly between order
/// statistics (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let k = (s.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let (lo, hi) = (k.floor() as usize, k.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (k - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Exact work counters summed over one repetition's rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Simulated cycles.
    pub cycles: u64,
    /// Tree queries answered.
    pub queries: u64,
    /// Warp instructions issued by the SIMT cores.
    pub warp_instrs: u64,
    /// Warp instructions of the BASE rows.
    pub base_warp_instrs: u64,
    /// Active lanes summed over issued instructions.
    pub lane_instrs: u64,
    /// Lane slots of the issued instructions (warp instructions × width).
    pub lane_slots: u64,
    /// Cycle-attribution buckets: SIMT busy, memory stall, other stall,
    /// accelerator busy, accelerator starved.
    pub attr: [u64; 5],
    /// L1 hits and misses.
    pub l1: (u64, u64),
    /// L2 hits and misses.
    pub l2: (u64, u64),
    /// L1 plus L2 misses merged into an in-flight fill.
    pub mshr_merges: u64,
    /// DRAM transactions.
    pub dram_transactions: u64,
    /// DRAM busy channel-cycles.
    pub dram_busy: f64,
    /// Cycles × channels (the utilization denominator).
    pub dram_slots: u64,
    /// Traversal-engine counters: nodes processed, node fetches, fetch
    /// merges, warp-buffer accesses.
    pub engine: [u64; 4],
    /// Nodes processed on TTA rows.
    pub tta_nodes: u64,
    /// Nodes processed on TTA+ rows.
    pub ttaplus_nodes: u64,
    /// TTA+ μop program invocations.
    pub program_invocations: u64,
    /// TTA+ crossbar cycles.
    pub icnt_cycles: u64,
    /// Operation-unit invocations on TTA+ rows.
    pub ttaplus_unit_invocations: u64,
    /// Serving and fleet batches launched.
    pub batches: u64,
    /// Serving and fleet queries completed.
    pub completed: u64,
    /// Fleet queries served off their shard.
    pub shard_misses: u64,
    /// Fleet queries that missed their class deadline.
    pub slo_misses: u64,
}

impl Counters {
    /// Sums the rows of `results`, the outcome of `jobs` in order.
    pub fn of(jobs: &[Job], results: &[RunResult]) -> Counters {
        let mut c = Counters::default();
        for (job, r) in jobs.iter().zip(results) {
            let plat = job.plat();
            let s = &r.stats;
            c.cycles += s.cycles;
            c.queries += job.queries(r);
            c.warp_instrs += s.warp_instrs;
            if plat == Plat::Base {
                c.base_warp_instrs += s.warp_instrs;
            }
            c.lane_instrs += s.lane_instrs;
            c.lane_slots += s.warp_instrs * u64::from(s.warp_size.max(1));
            let a = &s.attribution;
            for (slot, v) in c.attr.iter_mut().zip([
                a.simt_busy,
                a.simt_stall_mem,
                a.simt_stall_other,
                a.accel_busy,
                a.accel_starved,
            ]) {
                *slot += v;
            }
            c.l1.0 += s.l1.hits;
            c.l1.1 += s.l1.misses;
            c.l2.0 += s.l2.hits;
            c.l2.1 += s.l2.misses;
            c.mshr_merges += s.l1.mshr_merges + s.l2.mshr_merges;
            c.dram_transactions += s.dram.transactions;
            c.dram_busy += s.dram.busy_channel_cycles;
            c.dram_slots += s.cycles * s.dram_channels.max(1) as u64;
            if let Some(acc) = &r.accel {
                let e = &acc.engine;
                for (slot, v) in c.engine.iter_mut().zip([
                    e.nodes_processed,
                    e.node_fetches,
                    e.fetch_merges,
                    e.warp_buffer_accesses,
                ]) {
                    *slot += v;
                }
                match plat {
                    Plat::Tta => c.tta_nodes += e.nodes_processed,
                    Plat::TtaPlus => {
                        c.ttaplus_nodes += e.nodes_processed;
                        c.ttaplus_unit_invocations +=
                            acc.units.iter().map(|(_, u)| u.invocations).sum::<u64>();
                    }
                    Plat::Base | Plat::Rta => {}
                }
                c.program_invocations +=
                    acc.programs.iter().map(|(_, p)| p.invocations).sum::<u64>();
                c.icnt_cycles += acc.programs.iter().map(|(_, p)| p.icnt_cycles).sum::<u64>();
            }
            if let Some(sv) = &r.serve {
                c.batches += sv.batches;
                c.completed += sv.completed;
            }
            if let Some(f) = &r.fleet {
                c.batches += f.batches;
                c.completed += f.completed;
                c.shard_misses += f.shard_misses;
                c.slo_misses += f.slo_misses;
            }
        }
        c
    }
}

/// Fleet rows on TTA, as `(cluster mean inter-arrival, row)`, lightest
/// first.
fn tta_fleet_rows<'a>(jobs: &[Job], results: &'a [RunResult]) -> Vec<(f64, &'a RunResult)> {
    let mut rows: Vec<(f64, &RunResult)> = jobs
        .iter()
        .zip(results)
        .filter_map(|(job, r)| match job {
            Job::Fleet(e) if job.plat() == Plat::Tta => Some((e.arrival_mean_cycles, r)),
            _ => None,
        })
        .collect();
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));
    rows
}

/// `p99_latency_cycles`: the TTA fleet's p99 at the saturating rung of the
/// ladder; for the sweeps, each run's p99 warp completion cycle (the
/// latency of its queries, all released at cycle 0), averaged over runs.
pub fn p99_latency_cycles(jobs: &[Job], results: &[RunResult]) -> f64 {
    let fleet = tta_fleet_rows(jobs, results);
    if let Some((_, r)) = fleet.last() {
        return r.fleet.as_ref().map_or(0, |f| f.p99_latency) as f64;
    }
    let p99s: Vec<f64> = results
        .iter()
        .map(|r| percentile(&r.stats.warp_completions, 99.0).unwrap_or(0) as f64)
        .collect();
    ratio(p99s.iter().sum(), p99s.len() as f64)
}

/// `sustained_qpkc`: the highest ladder rate at which the TTA fleet's
/// interactive p99 meets its limit with no query dropped; for the sweeps,
/// queries answered per thousand simulated cycles.
pub fn sustained_qpkc(jobs: &[Job], results: &[RunResult], c: &Counters) -> f64 {
    let fleet = tta_fleet_rows(jobs, results);
    if fleet.is_empty() {
        return ratio(c.queries as f64 * 1000.0, c.cycles as f64);
    }
    fleet
        .iter()
        .filter(|(_, r)| {
            r.fleet.as_ref().is_some_and(|f| {
                f.dropped == 0
                    && f.per_class
                        .iter()
                        .filter(|k| k.class == "interactive")
                        .all(|k| k.p99_latency <= INTERACTIVE_SLO_CYCLES)
            })
        })
        .map(|(mean, _)| 1000.0 / mean)
        .fold(0.0, f64::max)
}

/// Host seconds of one repetition on [`crate::TIMED_WORKERS`], from the
/// untraced repetitions: the sum over jobs of each job's
/// [`HOST_QUANTILE`] time, and that sum plus the median time a repetition
/// spends outside its jobs (pool dispatch, journal) as its wall.
pub fn host_secs(out: &Outcome) -> (f64, f64) {
    let reps: Vec<&crate::Timing> = out.untraced().collect();
    let jobs = reps.first().map_or(0, |t| t.job_secs.len());
    let job_secs: f64 = (0..jobs)
        .map(|j| {
            let t: Vec<f64> = reps.iter().map(|r| r.job_secs[j]).collect();
            quantile(&t, HOST_QUANTILE)
        })
        .sum();
    let outside: Vec<f64> = reps
        .iter()
        .map(|r| r.wall - r.job_secs.iter().sum::<f64>())
        .collect();
    (job_secs, job_secs + median(&outside))
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let c = Counters::of(&out.jobs, &out.reference);
    let (job_secs, wall) = host_secs(out);
    vec![
        metric("wall_s", wall, "s"),
        metric("setup_s", median(&out.setup_secs), "s"),
        metric(
            "sim_mcycles_per_s",
            ratio(c.cycles as f64 * 1e-6, job_secs),
            "Mcycles/s",
        ),
        metric(
            "peak_rss_mb",
            median(&out.untraced().map(|t| t.peak_rss_mb).collect::<Vec<_>>()),
            "MB",
        ),
        metric(
            "queries_per_s",
            ratio(c.queries as f64, job_secs),
            "queries/s",
        ),
        metric("sim_cycles", c.cycles as f64, "cycles"),
        metric(
            "p99_latency_cycles",
            p99_latency_cycles(&out.jobs, &out.reference),
            "cycles",
        ),
        metric(
            "sustained_qpkc",
            sustained_qpkc(&out.jobs, &out.reference, &c),
            "queries/kcycle",
        ),
    ]
}

/// Layer times of one traced repetition or set-up pass, seconds.
#[derive(Debug, Default, Clone)]
struct LayerTimes {
    build_inputs: f64,
    open: f64,
    finish: f64,
    step: [f64; 4],
    device: f64,
    serve_loop: f64,
    batch_us: Vec<f64>,
    jobs: Vec<f64>,
    pool: f64,
    journal: f64,
    export: f64,
    import: f64,
    store_io: f64,
    coverage: f64,
}

/// Time `outer` spends outside the spans it contains.
fn self_secs(outer: &Span, spans: &[Span]) -> f64 {
    let inner: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| outer.contains(s) && (s.start, s.end) != (outer.start, outer.end))
        .map(|s| (s.start, s.end))
        .collect();
    (outer.end - outer.start - union_ns(inner)) as f64 * 1e-9
}

/// Sums the spans inside `frame` (a `Rep` or `Setup` span) by layer.
fn layer_times(frame: &Span, spans: &[Span]) -> LayerTimes {
    let inside: Vec<Span> = spans
        .iter()
        .filter(|s| frame.start <= s.start && s.end <= frame.end)
        .copied()
        .collect();
    let mut t = LayerTimes::default();
    let mut covered = 0u64;
    let mut job_ns = 0u64;
    let mut frame_covered = Vec::new();
    for s in &inside {
        match s.layer {
            Layer::Prepare => t.build_inputs += s.secs(),
            Layer::Open => t.open += s.secs(),
            Layer::Finish => t.finish += s.secs(),
            Layer::Step(p) => t.step[p as usize] += s.secs(),
            Layer::RunBatch(p) => {
                t.step[p as usize] += s.secs();
                t.device += s.secs();
                t.batch_us.push(s.secs() * 1e6);
            }
            Layer::ServeLoop => t.serve_loop += s.secs(),
            Layer::Export => t.export += s.secs(),
            Layer::Import => t.import += s.secs(),
            Layer::Resume => t.store_io += self_secs(s, &inside),
            Layer::Pool => {
                t.pool += s.secs();
                frame_covered.push((s.start, s.end));
            }
            Layer::Journal => {
                t.journal += s.secs();
                frame_covered.push((s.start, s.end));
            }
            Layer::Job => {
                t.jobs.push(s.secs());
                job_ns += s.end - s.start;
                let children: Vec<(u64, u64)> = inside
                    .iter()
                    .filter(|c| s.contains(c) && c.layer != Layer::Job)
                    .map(|c| (c.start, c.end))
                    .collect();
                covered += union_ns(children);
            }
            Layer::Setup | Layer::Rep => {}
        }
    }
    let frame_cov = union_ns(frame_covered) as f64 / (frame.end - frame.start).max(1) as f64;
    t.coverage = frame_cov.min(ratio(covered as f64, job_ns as f64));
    t
}

/// Spans of `layer` that no `Setup` span contains: the timed
/// repetitions' frames, or the set-up passes themselves.
fn frames(spans: &[Span], layer: Layer) -> Vec<Span> {
    let setups: Vec<&Span> = spans.iter().filter(|s| s.layer == Layer::Setup).collect();
    spans
        .iter()
        .filter(|s| s.layer == layer && !setups.iter().any(|u| u.contains(s) && **u != **s))
        .copied()
        .collect()
}

/// The per-layer metrics, in `BENCHMARK.json` order, from the spans of
/// the traced repetitions and set-up passes of `out`.
pub fn per_layer(out: &Outcome) -> Vec<Metric> {
    let spans = &out.spans;
    let c = Counters::of(&out.jobs, &out.reference);
    let reps: Vec<LayerTimes> = frames(spans, Layer::Rep)
        .iter()
        .map(|f| layer_times(f, spans))
        .collect();
    let setups: Vec<LayerTimes> = frames(spans, Layer::Setup)
        .iter()
        .map(|f| layer_times(f, spans))
        .collect();
    let rep = |f: &dyn Fn(&LayerTimes) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let setup = |f: &dyn Fn(&LayerTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let step = |p: Plat| rep(&|t| t.step[p as usize]);
    let pct = |v: &[f64], p: f64| {
        let ns: Vec<u64> = v.iter().map(|us| (us * 1e3) as u64).collect();
        percentile(&ns, p).unwrap_or(0) as f64 * 1e-3
    };
    let loop_self = rep(&|t| t.serve_loop - t.device);
    let job_sum = rep(&|t| t.jobs.iter().sum());
    let traced: Vec<f64> = out
        .timings
        .iter()
        .filter(|t| t.traced)
        .map(|t| t.wall)
        .collect();
    let untraced: Vec<f64> = out.untraced().map(|t| t.wall).collect();
    let workers = out.workers as f64;
    vec![
        metric("workloads.build_inputs_s", setup(&|t| t.build_inputs), "s"),
        metric(
            "harness.cache_hit_ratio",
            ratio((out.lookups - out.builds) as f64, out.lookups as f64),
            "ratio",
        ),
        metric("workloads.session_open_s", rep(&|t| t.open), "s"),
        metric("workloads.finish_s", rep(&|t| t.finish), "s"),
        metric("launch.step_s.base", step(Plat::Base), "s"),
        metric("gpu-sim.warp_instrs", c.warp_instrs as f64, "count"),
        metric(
            "gpu-sim.simt_efficiency",
            ratio(c.lane_instrs as f64, c.lane_slots as f64),
            "ratio",
        ),
        metric(
            "gpu-sim.ns_per_warp_instr",
            ratio(step(Plat::Base) * 1e9, c.base_warp_instrs as f64),
            "ns",
        ),
        metric("gpu-sim.attr.simt_busy", c.attr[0] as f64, "cycles"),
        metric("gpu-sim.attr.simt_stall_mem", c.attr[1] as f64, "cycles"),
        metric("gpu-sim.attr.simt_stall_other", c.attr[2] as f64, "cycles"),
        metric("gpu-sim.mem.l1_lookups", (c.l1.0 + c.l1.1) as f64, "count"),
        metric(
            "gpu-sim.mem.l1_hit_rate",
            ratio(c.l1.0 as f64, (c.l1.0 + c.l1.1) as f64),
            "ratio",
        ),
        metric("gpu-sim.mem.l2_lookups", (c.l2.0 + c.l2.1) as f64, "count"),
        metric(
            "gpu-sim.mem.l2_hit_rate",
            ratio(c.l2.0 as f64, (c.l2.0 + c.l2.1) as f64),
            "ratio",
        ),
        metric("gpu-sim.mem.mshr_merges", c.mshr_merges as f64, "count"),
        metric(
            "gpu-sim.mem.dram_transactions",
            c.dram_transactions as f64,
            "count",
        ),
        metric(
            "gpu-sim.mem.dram_utilization",
            ratio(c.dram_busy, c.dram_slots as f64),
            "ratio",
        ),
        metric("launch.step_s.tta", step(Plat::Tta), "s"),
        metric("launch.step_s.rta", step(Plat::Rta), "s"),
        metric("rta.nodes_processed", c.engine[0] as f64, "count"),
        metric("rta.node_fetches", c.engine[1] as f64, "count"),
        metric("rta.fetch_merges", c.engine[2] as f64, "count"),
        metric("rta.warp_buffer_accesses", c.engine[3] as f64, "count"),
        metric(
            "rta.ns_per_node.tta",
            ratio(step(Plat::Tta) * 1e9, c.tta_nodes as f64),
            "ns",
        ),
        metric("gpu-sim.attr.accel_busy", c.attr[3] as f64, "cycles"),
        metric("gpu-sim.attr.accel_starved", c.attr[4] as f64, "cycles"),
        metric("launch.step_s.ttaplus", step(Plat::TtaPlus), "s"),
        metric(
            "core.ns_per_node.ttaplus",
            ratio(step(Plat::TtaPlus) * 1e9, c.ttaplus_nodes as f64),
            "ns",
        ),
        metric(
            "core.program_invocations",
            c.program_invocations as f64,
            "count",
        ),
        metric("core.icnt_cycles", c.icnt_cycles as f64, "cycles"),
        metric(
            "core.unit_invocations",
            c.ttaplus_unit_invocations as f64,
            "count",
        ),
        metric("serve.device_s", rep(&|t| t.device), "s"),
        metric("fleet.loop_self_s", loop_self, "s"),
        metric(
            "fleet.loop_us_per_batch",
            ratio(loop_self * 1e6, c.batches as f64),
            "us",
        ),
        metric(
            "serve.run_batch_us.p50",
            rep(&|t| pct(&t.batch_us, 50.0)),
            "us",
        ),
        metric(
            "serve.run_batch_us.p99",
            rep(&|t| pct(&t.batch_us, 99.0)),
            "us",
        ),
        metric("fleet.batches", c.batches as f64, "count"),
        metric(
            "fleet.mean_batch_queries",
            ratio(c.completed as f64, c.batches as f64),
            "queries",
        ),
        metric("fleet.shard_misses", c.shard_misses as f64, "count"),
        metric("fleet.slo_misses", c.slo_misses as f64, "count"),
        metric("harness.job_s_sum", job_sum, "s"),
        metric(
            "harness.longest_job_s",
            rep(&|t| t.jobs.iter().copied().fold(0.0, f64::max)),
            "s",
        ),
        metric(
            "harness.pool_efficiency",
            rep(&|t| ratio(t.jobs.iter().sum(), workers * t.pool)),
            "ratio",
        ),
        metric("harness.journal_s", rep(&|t| t.journal), "s"),
        metric("harness.journal_bytes", out.journal_bytes as f64, "bytes"),
        metric("snap.export_s", setup(&|t| t.export), "s"),
        metric("snap.save_s", setup(&|t| t.store_io), "s"),
        metric("snap.load_s", rep(&|t| t.store_io), "s"),
        metric("snap.import_s", rep(&|t| t.import), "s"),
        metric("snap.bytes", out.snapshot_bytes as f64, "bytes"),
        metric(
            "bench.span_coverage",
            reps.iter()
                .map(|t| t.coverage)
                .reduce(f64::min)
                .unwrap_or(0.0),
            "ratio",
        ),
        metric(
            "bench.trace_overhead",
            ratio(median(&traced), median(&untraced)) - 1.0,
            "ratio",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        assert_eq!(quantile(&[], 0.9), 0.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
    }
}
