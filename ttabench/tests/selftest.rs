//! Self-tests of the benchmark: determinism, seeding, the traced run's
//! fidelity and coverage, and that the reported counters are the
//! journal's.

use std::path::PathBuf;
use std::sync::Arc;

use trace::json::{parse, Value};
use tta_perfbench::metrics::{end_to_end, per_layer, Counters};
use tta_perfbench::spans::Recorder;
use tta_perfbench::suite::{Bench, Job, Sizes, Workload, DEFAULT_SEED, HELD_OUT_SEED};
use tta_perfbench::timed::{fleet_traced, serve_traced};
use tta_perfbench::{execute, Outcome};
use workloads::CacheableExperiment;

fn bench(workload: Workload, seed: u64, test: &str) -> Bench {
    Bench {
        workload,
        seed,
        sizes: Sizes::SMOKE,
        workers: 2,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{test}")),
    }
}

fn run(workload: Workload, seed: u64, trace: bool, test: &str) -> Outcome {
    let b = bench(workload, seed, test);
    let out = execute(&b, 0.0, trace);
    let _ = std::fs::remove_dir_all(&b.work_dir);
    assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.failures);
    out
}

fn journal(workload: Workload, out: &Outcome) -> String {
    harness::journal::journal_json(workload.name(), &out.reference)
}

#[test]
fn same_seed_repeats_counters_and_journal_at_any_worker_count() {
    for w in Workload::ALL {
        let a = run(w, DEFAULT_SEED, false, &format!("same-a-{}", w.name()));
        let b = run(w, DEFAULT_SEED, false, &format!("same-b-{}", w.name()));
        assert_eq!(journal(w, &a), journal(w, &b), "{}", w.name());
        assert_eq!(
            Counters::of(&a.jobs, &a.reference),
            Counters::of(&b.jobs, &b.reference)
        );
        let simulated = |o: &Outcome| {
            end_to_end(o)
                .into_iter()
                .filter(|m| matches!(m.unit, "cycles" | "queries/kcycle"))
                .collect::<Vec<_>>()
        };
        assert_eq!(simulated(&a), simulated(&b), "{}", w.name());
        // Each invocation already compares every 1-worker timed
        // repetition against its 2-worker check repetition; `failed == 0`
        // above.
        assert!(
            a.attempted > a.jobs.len(),
            "{} ran one repetition",
            w.name()
        );
    }
}

#[test]
fn another_seed_changes_inputs_and_still_passes_the_oracle() {
    let jobs = |seed| tta_perfbench::suite::jobs(Workload::SimtSweep, &Sizes::SMOKE, seed);
    let keys = |jobs: Vec<Job>| match &jobs[0] {
        Job::BTree(e) => e.build_inputs().keys,
        other => panic!("first simt-sweep job is a B-Tree, got {other:?}"),
    };
    assert_ne!(keys(jobs(DEFAULT_SEED)), keys(jobs(HELD_OUT_SEED)));
    for w in [Workload::SimtSweep, Workload::ServeFleet] {
        // `run` asserts that no run failed: every oracle check passed.
        let a = run(w, DEFAULT_SEED, false, &format!("seed-a-{}", w.name()));
        let b = run(w, HELD_OUT_SEED, false, &format!("seed-b-{}", w.name()));
        assert_ne!(journal(w, &a), journal(w, &b), "{}", w.name());
    }
}

#[test]
fn traced_serving_runs_match_untraced_ones() {
    let b = bench(Workload::ServeFleet, DEFAULT_SEED, "traced-serving");
    let prepared = b.setup(0, None);
    let rec = Arc::new(Recorder::default());
    for job in &prepared.jobs {
        let (plain, traced) = match job {
            Job::Serve(e) => (e.run(), serve_traced(e, &rec)),
            Job::Fleet(e) => {
                let (plain, traced) = (e.run(), fleet_traced(e, &rec));
                assert_eq!(plain.fleet, traced.fleet);
                (plain, traced)
            }
            other => panic!("serve-fleet runs only serving jobs, got {other:?}"),
        };
        assert_eq!(
            harness::journal::journal_json("row", &[plain]),
            harness::journal::journal_json("row", &[traced])
        );
    }
}

#[test]
fn traced_runs_match_untraced_and_spans_cover_the_wall() {
    for w in Workload::ALL {
        let plain = run(w, DEFAULT_SEED, false, &format!("cover-a-{}", w.name()));
        let traced = run(w, DEFAULT_SEED, true, &format!("cover-b-{}", w.name()));
        assert_eq!(journal(w, &plain), journal(w, &traced), "{}", w.name());
        let layers = per_layer(&traced);
        let get = |name: &str| {
            layers
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("no metric {name}"))
                .value
        };
        assert!(
            get("bench.span_coverage") >= 0.95,
            "{}: span coverage {}",
            w.name(),
            get("bench.span_coverage")
        );
        assert!(get("harness.job_s_sum") > 0.0, "{}", w.name());
        if w == Workload::WarmResume {
            for name in [
                "snap.export_s",
                "snap.save_s",
                "snap.load_s",
                "snap.import_s",
            ] {
                assert!(get(name) > 0.0, "warm-resume: {name} is zero");
            }
        }
    }
}

fn num(v: &Value, path: &[&str]) -> u64 {
    let mut v = v;
    for key in path {
        v = v
            .get(key)
            .unwrap_or_else(|| panic!("journal has no {path:?}"));
    }
    v.as_num()
        .unwrap_or_else(|| panic!("{path:?} is not a number")) as u64
}

fn sum_list(v: &Value, list: &str, key: &str) -> u64 {
    v.get(list)
        .and_then(Value::as_array)
        .map_or(0, |items| items.iter().map(|i| num(i, &[key])).sum())
}

/// Recounts the exact counters from the journal text alone.
fn counters_from_journal(text: &str, jobs: &[Job]) -> Counters {
    let doc = parse(text).expect("journal is JSON");
    let runs = doc.get("runs").and_then(Value::as_array).expect("runs");
    let mut c = Counters::default();
    for (run, job) in runs.iter().zip(jobs) {
        let s = run.get("stats").expect("stats");
        let plat = job.plat();
        c.cycles += num(s, &["cycles"]);
        c.warp_instrs += num(s, &["warp_instrs"]);
        if plat == tta_perfbench::spans::Plat::Base {
            c.base_warp_instrs += num(s, &["warp_instrs"]);
        }
        c.lane_instrs += num(s, &["lane_instrs"]);
        c.lane_slots += num(s, &["warp_instrs"]) * num(s, &["warp_size"]);
        for (i, k) in [
            "simt_busy",
            "simt_stall_mem",
            "simt_stall_other",
            "accel_busy",
            "accel_starved",
        ]
        .iter()
        .enumerate()
        {
            c.attr[i] += num(run, &["attribution", k]);
        }
        c.l1.0 += num(s, &["l1", "hits"]);
        c.l1.1 += num(s, &["l1", "misses"]);
        c.l2.0 += num(s, &["l2", "hits"]);
        c.l2.1 += num(s, &["l2", "misses"]);
        c.mshr_merges += num(s, &["l1", "mshr_merges"]) + num(s, &["l2", "mshr_merges"]);
        c.dram_transactions += num(s, &["dram", "transactions"]);
        c.dram_busy += s
            .get("dram")
            .and_then(|d| d.get("busy_channel_cycles"))
            .and_then(Value::as_num)
            .expect("busy_channel_cycles");
        c.dram_slots += num(s, &["cycles"]) * num(s, &["dram_channels"]).max(1);
        if let Some(acc @ Value::Obj(_)) = run.get("accel") {
            let nodes = num(acc, &["engine", "nodes_processed"]);
            for (i, k) in [
                "nodes_processed",
                "node_fetches",
                "fetch_merges",
                "warp_buffer_accesses",
            ]
            .iter()
            .enumerate()
            {
                c.engine[i] += num(acc, &["engine", k]);
            }
            match plat {
                tta_perfbench::spans::Plat::Tta => c.tta_nodes += nodes,
                tta_perfbench::spans::Plat::TtaPlus => {
                    c.ttaplus_nodes += nodes;
                    c.ttaplus_unit_invocations += sum_list(acc, "units", "invocations");
                }
                _ => {}
            }
            c.program_invocations += sum_list(acc, "programs", "invocations");
            c.icnt_cycles += sum_list(acc, "programs", "icnt_cycles");
        }
        for section in ["serve", "fleet"] {
            if let Some(v @ Value::Obj(_)) = run.get(section) {
                c.batches += num(v, &["batches"]);
                c.completed += num(v, &["completed"]);
                if section == "fleet" {
                    c.shard_misses += num(v, &["shard_misses"]);
                    c.slo_misses += num(v, &["slo_misses"]);
                }
            }
        }
    }
    c
}

#[test]
fn layer_counters_equal_the_journal_sums() {
    for w in Workload::ALL {
        let out = run(w, DEFAULT_SEED, false, &format!("counters-{}", w.name()));
        let mut expected = counters_from_journal(&journal(w, &out), &out.jobs);
        let got = Counters::of(&out.jobs, &out.reference);
        // Queries answered are a property of the configuration, which the
        // journal does not record.
        expected.queries = got.queries;
        assert_eq!(got, expected, "{}", w.name());
        assert!(got.cycles > 0, "{}", w.name());
    }
}

#[test]
fn reported_names_match_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let doc = parse(&text).expect("BENCHMARK.json is JSON");
    let declared = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Value::as_str).expect(k).to_owned();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let out = run(Workload::WarmResume, DEFAULT_SEED, true, "names");
    let names = |ms: Vec<tta_perfbench::metrics::Metric>| {
        ms.into_iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect::<Vec<_>>()
    };
    assert_eq!(names(end_to_end(&out)), declared("end_to_end"));
    assert_eq!(names(per_layer(&out)), declared("per_layer"));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_owned()
        })
        .collect();
    assert_eq!(
        workloads,
        Workload::ALL.map(|w| w.name().to_owned()).to_vec()
    );
}
