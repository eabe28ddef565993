//! Deterministic JSON run journals.
//!
//! One journal per sweep, one entry per run, replacing the ad-hoc printlns
//! the fig binaries used to rely on. The serialization is hand-rolled (no
//! registry access → no `serde`) and **deterministic**: stable field
//! order, integer counters verbatim, strings via [`trace::json::quote`],
//! floats via [`trace::json::num`] (shortest-roundtrip `Display`,
//! `NaN`/infinities as `null`). Equal result lists therefore serialize to
//! byte-identical text, which is what the 1-thread-vs-N-thread
//! determinism test asserts.
//!
//! Wall-clock timings are deliberately **not** part of the journal — they
//! differ run to run and would break byte-identity. [`crate::sweep`]
//! writes them to a separate `.timing.json` sidecar.

use trace::json::{num, quote};
use workloads::{AccelReport, RunResult, ServeSummary};

/// Journal schema version (bump on breaking shape changes).
///
/// v2 added the per-run `"serve"` section (online-serving metrics, `null`
/// for closed-batch figure runs) and `"warp_completions"` inside
/// `"stats"`.
///
/// v3 added the per-run `"attribution"` section (cycle-attribution
/// buckets summing to `cycles`) and the `queue_wait_cycles` /
/// `idle_cycles` / `horizon_cycles` counters inside `"serve"`.
///
/// v4 added the per-run `"fleet"` section (multi-device cluster-serving
/// metrics with nested `per_device` and `per_class` rows, `null` for
/// non-fleet runs).
pub const SCHEMA_VERSION: u32 = 4;

/// Serializes a finished sweep as the journal JSON document.
pub fn journal_json(sweep: &str, results: &[RunResult]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": {SCHEMA_VERSION},\n"));
    out.push_str(&format!("  \"sweep\": {},\n", quote(sweep)));
    out.push_str(&format!("  \"run_count\": {},\n", results.len()));
    out.push_str("  \"runs\": [");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&run_json(r));
    }
    if !results.is_empty() {
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

fn run_json(r: &RunResult) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("    {\n");
    out.push_str(&format!("      \"label\": {},\n", quote(&r.label)));
    out.push_str(&format!("      \"cycles\": {},\n", r.stats.cycles));
    out.push_str(&format!(
        "      \"simt_efficiency\": {},\n",
        num(r.stats.simt_efficiency())
    ));
    out.push_str(&format!(
        "      \"dram_utilization\": {},\n",
        num(r.stats.dram_utilization())
    ));
    out.push_str(&format!(
        "      \"arithmetic_intensity\": {},\n",
        num(r.stats.arithmetic_intensity())
    ));
    out.push_str(&format!(
        "      \"core_instructions\": {},\n",
        r.core_instructions()
    ));
    out.push_str(&format!("      \"stats\": {},\n", r.stats.to_json()));
    out.push_str(&format!(
        "      \"attribution\": {},\n",
        r.stats.attribution.to_json()
    ));
    match &r.serve {
        Some(s) => out.push_str(&format!("      \"serve\": {},\n", serve_json(s))),
        None => out.push_str("      \"serve\": null,\n"),
    }
    match &r.fleet {
        Some(f) => out.push_str(&format!("      \"fleet\": {},\n", fleet_json(f))),
        None => out.push_str("      \"fleet\": null,\n"),
    }
    match &r.accel {
        Some(a) => out.push_str(&format!("      \"accel\": {}\n", accel_json(a))),
        None => out.push_str("      \"accel\": null\n"),
    }
    out.push_str("    }");
    out
}

/// The serving-metrics journal section: one flat object, stable field
/// order, integer cycle counters verbatim, rates via [`num`] — the same
/// determinism contract as the rest of the journal.
fn serve_json(s: &ServeSummary) -> String {
    format!(
        "{{\"policy\":{},\"backend\":{},\"arrival_mean_cycles\":{},\
         \"offered\":{},\"admitted\":{},\"dropped\":{},\"completed\":{},\
         \"batches\":{},\
         \"p50_latency\":{},\"p95_latency\":{},\"p99_latency\":{},\"max_latency\":{},\
         \"throughput_qpkc\":{},\"max_queue_depth\":{},\"makespan_cycles\":{},\
         \"queue_wait_cycles\":{},\"idle_cycles\":{},\"horizon_cycles\":{}}}",
        quote(&s.policy),
        quote(&s.backend),
        num(s.arrival_mean_cycles),
        s.offered,
        s.admitted,
        s.dropped,
        s.completed,
        s.batches,
        s.p50_latency,
        s.p95_latency,
        s.p99_latency,
        s.max_latency,
        num(s.throughput_qpkc),
        s.max_queue_depth,
        s.makespan_cycles,
        s.queue_wait_cycles,
        s.idle_cycles,
        s.horizon_cycles,
    )
}

/// The fleet-metrics journal section (schema v4): one object with nested
/// `per_device` / `per_class` arrays, stable field order, integer cycle
/// counters verbatim, rates via [`num`] — the same determinism contract as
/// the rest of the journal.
fn fleet_json(f: &workloads::FleetSummary) -> String {
    let devices: Vec<String> = f
        .per_device
        .iter()
        .map(|d| {
            format!(
                "{{\"device\":{},\"batches\":{},\"completed\":{},\"dropped\":{},\
                 \"busy_cycles\":{},\"queue_wait_cycles\":{},\"idle_cycles\":{},\
                 \"max_queue_depth\":{},\"shard_misses\":{},\"cold_starts\":{}}}",
                d.device,
                d.batches,
                d.completed,
                d.dropped,
                d.busy_cycles,
                d.queue_wait_cycles,
                d.idle_cycles,
                d.max_queue_depth,
                d.shard_misses,
                d.cold_starts,
            )
        })
        .collect();
    let classes: Vec<String> = f
        .per_class
        .iter()
        .map(|c| {
            format!(
                "{{\"class\":{},\"deadline_cycles\":{},\"offered\":{},\"completed\":{},\
                 \"dropped\":{},\"slo_misses\":{},\"p50_latency\":{},\"p99_latency\":{},\
                 \"max_latency\":{}}}",
                quote(&c.class),
                c.deadline_cycles,
                c.offered,
                c.completed,
                c.dropped,
                c.slo_misses,
                c.p50_latency,
                c.p99_latency,
                c.max_latency,
            )
        })
        .collect();
    format!(
        "{{\"router\":{},\"backend\":{},\"policy\":{},\"devices\":{},\"shards\":{},\
         \"replication\":{},\"shard_miss_penalty\":{},\"arrival_mean_cycles\":{},\
         \"offered\":{},\"admitted\":{},\"dropped\":{},\"completed\":{},\"batches\":{},\
         \"p50_latency\":{},\"p95_latency\":{},\"p99_latency\":{},\"max_latency\":{},\
         \"throughput_qpkc\":{},\"slo_misses\":{},\"shard_hits\":{},\"shard_misses\":{},\
         \"cold_starts\":{},\"makespan_cycles\":{},\"horizon_cycles\":{},\
         \"per_device\":[{}],\"per_class\":[{}]}}",
        quote(&f.router),
        quote(&f.backend),
        quote(&f.policy),
        f.devices,
        f.shards,
        f.replication,
        f.shard_miss_penalty,
        num(f.arrival_mean_cycles),
        f.offered,
        f.admitted,
        f.dropped,
        f.completed,
        f.batches,
        f.p50_latency,
        f.p95_latency,
        f.p99_latency,
        f.max_latency,
        num(f.throughput_qpkc),
        f.slo_misses,
        f.shard_hits,
        f.shard_misses,
        f.cold_starts,
        f.makespan_cycles,
        f.horizon_cycles,
        devices.join(","),
        classes.join(","),
    )
}

fn accel_json(a: &AccelReport) -> String {
    let e = &a.engine;
    let units: Vec<String> = a
        .units
        .iter()
        .map(|(name, s)| {
            format!(
                "{{\"name\":{},\"invocations\":{},\"busy_cycles\":{},\
                 \"peak_in_flight\":{},\"total_latency\":{}}}",
                quote(name),
                s.invocations,
                s.busy_cycles,
                s.peak_in_flight,
                s.total_latency
            )
        })
        .collect();
    let programs: Vec<String> = a
        .programs
        .iter()
        .map(|(name, s)| {
            format!(
                "{{\"name\":{},\"invocations\":{},\"total_latency\":{},\"icnt_cycles\":{}}}",
                quote(name),
                s.invocations,
                s.total_latency,
                s.icnt_cycles
            )
        })
        .collect();
    format!(
        "{{\"engine\":{{\"warps_accepted\":{},\"rays_completed\":{},\"node_fetches\":{},\
         \"fetch_merges\":{},\"nodes_processed\":{},\"warp_buffer_accesses\":{},\
         \"prefetches\":{},\"busy_cycles\":{}}},\
         \"units\":[{}],\"programs\":[{}],\
         \"shader_lane_instructions\":{},\"traversals\":{}}}",
        e.warps_accepted,
        e.rays_completed,
        e.node_fetches,
        e.fetch_merges,
        e.nodes_processed,
        e.warp_buffer_accesses,
        e.prefetches,
        e.busy_cycles,
        units.join(","),
        programs.join(","),
        a.shader_lane_instructions,
        a.traversals
    )
}

/// Timing sidecar: wall-clock per run and for the whole sweep. Lives next
/// to the journal but in a separate file precisely because it is *not*
/// deterministic.
pub fn timing_json(
    sweep: &str,
    threads: usize,
    wall_seconds: f64,
    runs: &[(String, f64)],
) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    out.push_str(&format!("  \"sweep\": {},\n", quote(sweep)));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"wall_seconds\": {},\n", num(wall_seconds)));
    out.push_str("  \"runs\": [");
    for (i, (label, secs)) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"label\": {}, \"wall_seconds\": {}}}",
            quote(label),
            num(*secs)
        ));
    }
    if !runs.is_empty() {
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::SimStats;

    fn result(label: &str, cycles: u64) -> RunResult {
        let mut stats = SimStats {
            cycles,
            warp_instrs: 10,
            lane_instrs: 300,
            ..Default::default()
        };
        stats.mix.alu = 200;
        stats.mix.memory = 100;
        RunResult {
            label: label.to_owned(),
            stats,
            accel: None,
            serve: None,
            fleet: None,
        }
    }

    #[test]
    fn equal_results_serialize_identically() {
        let runs = vec![result("a", 100), result("b", 250)];
        let x = journal_json("test", &runs);
        let y = journal_json("test", &runs.clone());
        assert_eq!(x, y);
        assert!(x.contains("\"sweep\": \"test\""));
        assert!(x.contains("\"cycles\": 100"));
        assert!(x.contains("\"run_count\": 2"));
        assert!(x.contains("\"accel\": null"));
        assert!(
            x.contains("\"attribution\": {"),
            "v3 journals carry the attribution section"
        );
    }

    #[test]
    fn serve_section_serializes_deterministically() {
        let mut r = result("serve", 5000);
        r.serve = Some(ServeSummary {
            policy: "cont8w".into(),
            backend: "TTA".into(),
            arrival_mean_cycles: 120.5,
            offered: 512,
            admitted: 512,
            dropped: 0,
            completed: 512,
            batches: 9,
            p50_latency: 400,
            p95_latency: 900,
            p99_latency: 1200,
            max_latency: 1500,
            throughput_qpkc: 2.5,
            max_queue_depth: 64,
            makespan_cycles: 204800,
            queue_wait_cycles: 3200,
            idle_cycles: 160000,
            horizon_cycles: 204800,
        });
        let a = journal_json("serve", std::slice::from_ref(&r));
        let b = journal_json("serve", &[r.clone()]);
        assert_eq!(a, b, "equal serve runs must serialize byte-identically");
        for key in [
            "\"policy\":\"cont8w\"",
            "\"backend\":\"TTA\"",
            "\"p99_latency\":1200",
            "\"dropped\":0",
            "\"max_queue_depth\":64",
            "\"throughput_qpkc\":2.5",
            "\"queue_wait_cycles\":3200",
            "\"idle_cycles\":160000",
            "\"horizon_cycles\":204800",
        ] {
            assert!(a.contains(key), "missing {key}");
        }
        // Closed-batch runs keep a null serve section.
        let plain = journal_json("plain", &[result("x", 1)]);
        assert!(plain.contains("\"serve\": null"));
    }

    #[test]
    fn fleet_section_serializes_deterministically() {
        use workloads::{FleetClassSummary, FleetDeviceSummary, FleetSummary};
        let mut r = result("fleet", 9000);
        r.fleet = Some(FleetSummary {
            router: "p2c".into(),
            backend: "TTA".into(),
            policy: "cont8w".into(),
            devices: 2,
            shards: 8,
            replication: 2,
            shard_miss_penalty: 500,
            arrival_mean_cycles: 75.0,
            offered: 256,
            admitted: 250,
            dropped: 6,
            completed: 250,
            batches: 17,
            p50_latency: 300,
            p95_latency: 800,
            p99_latency: 1100,
            max_latency: 1400,
            throughput_qpkc: 3.5,
            slo_misses: 4,
            shard_hits: 200,
            shard_misses: 50,
            cold_starts: 1,
            makespan_cycles: 80_000,
            horizon_cycles: 80_000,
            per_device: vec![FleetDeviceSummary {
                device: 0,
                batches: 9,
                completed: 130,
                dropped: 0,
                busy_cycles: 50_000,
                queue_wait_cycles: 10_000,
                idle_cycles: 20_000,
                max_queue_depth: 40,
                shard_misses: 25,
                cold_starts: 0,
            }],
            per_class: vec![FleetClassSummary {
                class: "interactive".into(),
                deadline_cycles: 2_000,
                offered: 200,
                completed: 196,
                dropped: 4,
                slo_misses: 3,
                p50_latency: 280,
                p99_latency: 1_050,
                max_latency: 1_400,
            }],
        });
        let a = journal_json("fleet", std::slice::from_ref(&r));
        let b = journal_json("fleet", &[r.clone()]);
        assert_eq!(a, b, "equal fleet runs must serialize byte-identically");
        for key in [
            "\"router\":\"p2c\"",
            "\"devices\":2",
            "\"shard_miss_penalty\":500",
            "\"per_device\":[{\"device\":0,",
            "\"per_class\":[{\"class\":\"interactive\",",
            "\"slo_misses\":4",
            "\"cold_starts\":1",
            "\"horizon_cycles\":80000",
        ] {
            assert!(a.contains(key), "missing {key}");
        }
        // Non-fleet runs keep a null fleet section (v4 contract).
        let plain = journal_json("plain", &[result("x", 1)]);
        assert!(plain.contains("\"fleet\": null"));
    }

    #[test]
    fn empty_sweep_is_valid() {
        let j = journal_json("empty", &[]);
        assert!(j.contains("\"runs\": [  ]\n") || j.contains("\"runs\": []"));
        let t = timing_json("empty", 4, 0.0, &[]);
        assert!(t.contains("\"threads\": 4"));
    }
}
