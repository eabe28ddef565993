//! Folds a [`FleetOutcome`] into the journal-facing
//! [`workloads::FleetSummary`] (the schema-v4 `"fleet"` section).
//!
//! Percentiles are nearest-rank throughout (see `serve::metrics`): every
//! reported pN is an observed latency, and p99 of a class with fewer than
//! 100 completions is that class's max sample — which keeps tiny per-class
//! rows well-defined.

use gpu_sim::stats::percentile;
use workloads::{FleetClassSummary, FleetDeviceSummary, FleetSummary};

use crate::cluster::{FleetConfig, FleetOutcome};

/// Summarizes one fleet run. `backend` is the device backend label (all
/// devices are identical); `arrival_mean_cycles` is the offered stream's
/// mean inter-arrival time (recorded, not recomputed).
pub fn summarize(
    cfg: &FleetConfig,
    backend: &str,
    arrival_mean_cycles: f64,
    out: &FleetOutcome,
) -> FleetSummary {
    let latencies: Vec<u64> = out.queries.iter().filter_map(|q| q.latency()).collect();
    let completed = latencies.len() as u64;
    let offered = out.queries.len() as u64;
    let dropped = offered - completed;
    let pct = |v: &[u64], p: f64| percentile(v, p).unwrap_or(0);
    let throughput_qpkc = if out.makespan > 0 {
        completed as f64 / out.makespan as f64 * 1000.0
    } else {
        0.0
    };
    let slo_misses = out
        .queries
        .iter()
        .filter(|q| {
            q.latency()
                .is_some_and(|l| l > cfg.slo.classes[q.class].deadline_cycles)
        })
        .count() as u64;
    let shard_misses: u64 = out.per_device.iter().map(|d| d.shard_misses).sum();

    let per_device: Vec<FleetDeviceSummary> = out
        .per_device
        .iter()
        .enumerate()
        .map(|(d, r)| FleetDeviceSummary {
            device: d as u64,
            batches: r.counters.batches,
            completed: r.counters.completed,
            dropped: r.counters.dropped,
            busy_cycles: r.counters.busy_cycles,
            queue_wait_cycles: r.counters.queue_wait_cycles,
            idle_cycles: r.counters.idle_cycles,
            max_queue_depth: r.counters.max_queue_depth as u64,
            shard_misses: r.shard_misses,
            cold_starts: r.cold_starts,
        })
        .collect();

    let per_class: Vec<FleetClassSummary> = cfg
        .slo
        .classes
        .iter()
        .enumerate()
        .map(|(c, sc)| {
            let qs: Vec<_> = out.queries.iter().filter(|q| q.class == c).collect();
            let lat: Vec<u64> = qs.iter().filter_map(|q| q.latency()).collect();
            FleetClassSummary {
                class: sc.name.clone(),
                deadline_cycles: sc.deadline_cycles,
                offered: qs.len() as u64,
                completed: lat.len() as u64,
                dropped: (qs.len() - lat.len()) as u64,
                slo_misses: lat.iter().filter(|&&l| l > sc.deadline_cycles).count() as u64,
                p50_latency: pct(&lat, 50.0),
                p99_latency: pct(&lat, 99.0),
                max_latency: lat.iter().copied().max().unwrap_or(0),
            }
        })
        .collect();

    FleetSummary {
        router: cfg.router.label().to_owned(),
        backend: backend.to_owned(),
        policy: cfg.policy.label(),
        devices: out.per_device.len() as u64,
        shards: cfg.shards.shards as u64,
        replication: cfg.shards.replication as u64,
        shard_miss_penalty: cfg.shard_miss_penalty,
        arrival_mean_cycles,
        offered,
        admitted: offered - dropped,
        dropped,
        completed,
        batches: out.per_device.iter().map(|d| d.counters.batches).sum(),
        p50_latency: pct(&latencies, 50.0),
        p95_latency: pct(&latencies, 95.0),
        p99_latency: pct(&latencies, 99.0),
        max_latency: latencies.iter().copied().max().unwrap_or(0),
        throughput_qpkc,
        slo_misses,
        shard_hits: completed - shard_misses,
        shard_misses,
        cold_starts: out.per_device.iter().map(|d| d.cold_starts).sum(),
        makespan_cycles: out.makespan,
        horizon_cycles: out.horizon,
        per_device,
        per_class,
    }
}
