//! The benchmark's workloads and the code that sets them up and runs one
//! repetition of each.
//!
//! A workload is a list of experiment runs ([`Job`]s) executed by one
//! `harness` pool. Set-up builds every input through
//! `harness::prepare` into a fresh `InputCache` (and, for `warm-resume`,
//! runs the cold pass that fills the snapshot store); a repetition opens
//! a fresh session per job, so the modelled caches start empty in every
//! sweep run, while serve and fleet devices stay warm across the batches
//! of their run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fleet::{FleetExperiment, RouterPolicy, ShardSpec, SloConfig};
use harness::{InputCache, SnapshotStore};
use serve::{BatchPolicy, ServeBackend, ServeExperiment, ServeWorkload};
use trees::BTreeFlavor;
use tta_bench::{platform_rta, platform_tta, platform_ttaplus};
use workloads::btree::BTreeExperiment;
use workloads::nbody::NBodyExperiment;
use workloads::rtnn::{LeafPath, RtnnExperiment};
use workloads::{Platform, RunResult, RunSession};

use crate::spans::{span, Layer, Plat, Recorder};
use crate::timed::{fleet_traced, serve_traced, TimedSession};

/// The seed the benchmark's recorded numbers use.
pub const DEFAULT_SEED: u64 = 0x5eed;
/// A seed kept out of tuning: a claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 0x7e57_2026;

/// Interactive-class latency limit of the fleet, in cycles (the `fleet`
/// binary's two-tier mix).
pub const INTERACTIVE_SLO_CYCLES: u64 = 20_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The fig13 BASE column: SIMT cores and the memory hierarchy only.
    SimtSweep,
    /// The same inputs on TTA and TTA+, plus RTNN on RTA, TTA and TTA+.
    AccelSweep,
    /// Serving and fleet runs over a ladder of arrival rates.
    ServeFleet,
    /// `accel-sweep` restored from a snapshot store filled in set-up.
    WarmResume,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SimtSweep,
        Workload::AccelSweep,
        Workload::ServeFleet,
        Workload::WarmResume,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimtSweep => "simt-sweep",
            Workload::AccelSweep => "accel-sweep",
            Workload::ServeFleet => "serve-fleet",
            Workload::WarmResume => "warm-resume",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Keys per B-Tree.
    pub btree_keys: usize,
    /// Lookups per B-Tree run.
    pub btree_queries: usize,
    /// Bodies of the 3-D N-Body run.
    pub nbody_bodies: usize,
    /// Points of the RTNN cloud.
    pub rtnn_points: usize,
    /// Radius queries per RTNN run.
    pub rtnn_queries: usize,
    /// Keys of the served B-Tree.
    pub serve_keys: usize,
    /// Queries offered per serving or fleet run.
    pub serve_offered: usize,
}

impl Sizes {
    /// The sizes the benchmark measures. The RTNN cloud keeps the fig13
    /// point count, so its image (~6 MB) overflows the 3 MB modelled L2
    /// while the B-Tree images fit in it.
    pub const BENCH: Sizes = Sizes {
        btree_keys: 64_000,
        btree_queries: 4_096,
        nbody_bodies: 1_000,
        rtnn_points: 64_000,
        rtnn_queries: 512,
        serve_keys: 8_000,
        serve_offered: 4_096,
    };

    /// Small sizes for the self-tests.
    pub const SMOKE: Sizes = Sizes {
        btree_keys: 2_000,
        btree_queries: 256,
        nbody_bodies: 128,
        rtnn_points: 2_000,
        rtnn_queries: 64,
        serve_keys: 1_000,
        serve_offered: 96,
    };
}

/// One experiment run of a workload.
#[derive(Debug, Clone)]
pub enum Job {
    /// A B-Tree lookup sweep point.
    BTree(BTreeExperiment),
    /// A Barnes-Hut N-Body sweep point.
    NBody(NBodyExperiment),
    /// An RTNN radius-search sweep point.
    Rtnn(RtnnExperiment),
    /// A single-device serving run.
    Serve(ServeExperiment),
    /// A multi-device fleet run.
    Fleet(FleetExperiment),
}

/// Mean inter-arrival times (cycles at one device) of the serving ladder,
/// from light load, where most batches hold about one query, to a stream
/// that saturates the backend. A fleet of `d` devices is offered `d`
/// times the rate. Rungs are a factor of about four apart, so the rung at
/// which the fleet stops meeting its latency limit does not move with the
/// seed.
pub fn ladder(backend: ServeBackend) -> [f64; 5] {
    match backend {
        ServeBackend::Base => [24_000.0, 3_000.0, 1_000.0, 300.0, 100.0],
        _ => [8_000.0, 500.0, 125.0, 32.0, 8.0],
    }
}

/// Inputs whose simulated cost depends strongly on the seed (N-Body's
/// cluster geometry, the RTNN point cloud) run on this many independently
/// seeded instances, so a workload's sums vary less from seed to seed.
pub const REPLICAS: u64 = 5;

/// The seed of replica `r`; replica 0 uses `seed` itself.
fn replica_seed(seed: u64, r: u64) -> u64 {
    seed ^ r.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Devices of every fleet run.
pub const FLEET_DEVICES: usize = 4;

fn btree_workload(sizes: &Sizes) -> ServeWorkload {
    ServeWorkload::BTree {
        flavor: BTreeFlavor::BTree,
        keys: sizes.serve_keys,
        universe: 512,
    }
}

fn serve_job(sizes: &Sizes, backend: ServeBackend, mean: f64, seed: u64) -> Job {
    let mut e = ServeExperiment::new(
        btree_workload(sizes),
        backend,
        BatchPolicy::Continuous { max_warps: 8 },
        sizes.serve_offered,
        mean,
    );
    e.seed = seed;
    e.verify = true;
    Job::Serve(e)
}

/// The `fleet` binary's sharded cluster point: more shards than devices,
/// one hot shard double-replicated, a remote-shard penalty, and the
/// two-tier interactive/bulk class mix.
fn fleet_job(sizes: &Sizes, backend: ServeBackend, mean: f64, seed: u64) -> Job {
    let mut e = FleetExperiment::new(
        btree_workload(sizes),
        backend,
        FLEET_DEVICES,
        RouterPolicy::PowerOfTwo,
        BatchPolicy::Continuous { max_warps: 8 },
        sizes.serve_offered,
        mean / FLEET_DEVICES as f64,
    );
    e.shards = ShardSpec {
        shards: 2 * FLEET_DEVICES + 1,
        replication: 1,
        hot_shards: 1,
        hot_replication: 2,
    };
    e.shard_miss_penalty = 400;
    e.slo = SloConfig::two_tier(INTERACTIVE_SLO_CYCLES, 200_000, 48);
    e.seed = seed;
    e.verify = true;
    Job::Fleet(e)
}

fn btree_job(sizes: &Sizes, flavor: BTreeFlavor, platform: Platform, seed: u64) -> Job {
    let mut e = BTreeExperiment::new(flavor, sizes.btree_keys, sizes.btree_queries, platform);
    e.seed = seed;
    e.verify = true;
    Job::BTree(e)
}

fn nbody_job(sizes: &Sizes, platform: Platform, seed: u64) -> Job {
    let mut e = NBodyExperiment::new(3, sizes.nbody_bodies, platform);
    e.seed = seed;
    e.verify = true;
    Job::NBody(e)
}

fn rtnn_job(sizes: &Sizes, platform: Platform, leaf: LeafPath, seed: u64) -> Job {
    let mut e = RtnnExperiment::new(sizes.rtnn_points, sizes.rtnn_queries, platform, leaf);
    e.seed = seed;
    e.verify = true;
    Job::Rtnn(e)
}

/// The runs of `workload`, with every experiment seeded from `seed`.
pub fn jobs(workload: Workload, sizes: &Sizes, seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    match workload {
        Workload::SimtSweep => {
            for flavor in BTreeFlavor::ALL {
                jobs.push(btree_job(sizes, flavor, Platform::BaselineGpu, seed));
            }
            for r in 0..REPLICAS {
                let seed = replica_seed(seed, r);
                jobs.push(nbody_job(sizes, Platform::BaselineGpu, seed));
            }
        }
        Workload::AccelSweep | Workload::WarmResume => {
            for flavor in BTreeFlavor::ALL {
                jobs.push(btree_job(sizes, flavor, platform_tta(), seed));
                let plus = platform_ttaplus(BTreeExperiment::uop_programs());
                jobs.push(btree_job(sizes, flavor, plus, seed));
            }
            for r in 0..REPLICAS {
                let seed = replica_seed(seed, r);
                jobs.push(nbody_job(sizes, platform_tta(), seed));
                let plus = platform_ttaplus(NBodyExperiment::uop_programs());
                jobs.push(nbody_job(sizes, plus, seed));
            }
            for r in 0..REPLICAS {
                let seed = replica_seed(seed, r);
                jobs.push(rtnn_job(sizes, platform_rta(), LeafPath::Shader, seed));
                jobs.push(rtnn_job(sizes, platform_tta(), LeafPath::Offloaded, seed));
                let plus = platform_ttaplus(RtnnExperiment::uop_programs());
                jobs.push(rtnn_job(sizes, plus, LeafPath::Offloaded, seed));
            }
        }
        Workload::ServeFleet => {
            for backend in [ServeBackend::Tta, ServeBackend::Base] {
                for mean in ladder(backend) {
                    jobs.push(serve_job(sizes, backend, mean, seed));
                    jobs.push(fleet_job(sizes, backend, mean, seed));
                }
            }
        }
    }
    jobs
}

impl Job {
    /// Attaches shared inputs through `harness::prepare`; returns whether
    /// the cache missed and built them.
    fn prepare(self, cache: &InputCache) -> (Job, bool) {
        let before = cache.len();
        let job = match self {
            Job::BTree(e) => Job::BTree(harness::prepare(cache, e)),
            Job::NBody(e) => Job::NBody(harness::prepare(cache, e)),
            Job::Rtnn(e) => Job::Rtnn(harness::prepare(cache, e)),
            Job::Serve(e) => Job::Serve(harness::prepare(cache, e)),
            Job::Fleet(e) => Job::Fleet(harness::prepare(cache, e)),
        };
        (job, cache.len() > before)
    }

    /// The platform its launches run on.
    pub fn plat(&self) -> Plat {
        let backend = match self {
            Job::BTree(e) => return Plat::from_label(e.platform.label()),
            Job::NBody(e) => return Plat::from_label(e.platform.label()),
            Job::Rtnn(e) => return Plat::from_label(e.platform.label()),
            Job::Serve(e) => e.backend,
            Job::Fleet(e) => e.backend,
        };
        // Every serving job hosts B-Tree lookups, whose BASE backend is
        // the SIMT cores.
        match backend {
            ServeBackend::Base => Plat::Base,
            ServeBackend::Tta => Plat::Tta,
            ServeBackend::TtaPlus => Plat::TtaPlus,
        }
    }

    /// Tree queries the run answered: lookups, bodies, radius queries, or
    /// completed serving queries.
    pub fn queries(&self, r: &RunResult) -> u64 {
        match self {
            Job::BTree(e) => e.queries as u64,
            Job::NBody(e) => e.bodies as u64,
            Job::Rtnn(e) => e.queries as u64,
            Job::Serve(_) => r.serve.as_ref().map_or(0, |s| s.completed),
            Job::Fleet(_) => r.fleet.as_ref().map_or(0, |f| f.completed),
        }
    }

    /// Runs the experiment. Sweep points go through
    /// `harness::run_or_resume`, as the bench binaries run them, with
    /// `store` when one is given; serving points run as
    /// `ServeExperiment::run` / `FleetExperiment::run`. With a recorder,
    /// the calls are wrapped in spans.
    fn run(
        &self,
        store: Option<&SnapshotStore>,
        strict: bool,
        rec: Option<&Arc<Recorder>>,
    ) -> RunResult {
        let session: Box<dyn RunSession> = match self {
            Job::BTree(e) => span(rec, Layer::Open, || Box::new(e.session(1))),
            Job::NBody(e) => span(rec, Layer::Open, || Box::new(e.session())),
            Job::Rtnn(e) => span(rec, Layer::Open, || Box::new(e.session(1))),
            Job::Serve(e) => return rec.map_or_else(|| e.run(), |rec| serve_traced(e, rec)),
            Job::Fleet(e) => return rec.map_or_else(|| e.run(), |rec| fleet_traced(e, rec)),
        };
        match rec {
            None => harness::run_or_resume(store, strict, session),
            Some(rec) => {
                let session = Box::new(TimedSession::new(session, Arc::clone(rec), self.plat()));
                if store.is_some() {
                    rec.time(Layer::Resume, || {
                        harness::run_or_resume(store, strict, session)
                    })
                } else {
                    harness::run_or_resume(store, strict, session)
                }
            }
        }
    }
}

/// One workload's prepared runs.
#[derive(Debug)]
pub struct Prepared {
    /// Runs with their inputs attached.
    pub jobs: Vec<Job>,
    /// `harness::prepare` calls made.
    pub lookups: usize,
    /// Calls that missed the cache and built inputs.
    pub builds: usize,
    /// The snapshot store the cold pass filled (`warm-resume` only).
    pub store: Option<SnapshotStore>,
    /// The cold pass's results, which warm repetitions must reproduce.
    pub cold: Option<Vec<RunResult>>,
}

/// One repetition's outcome.
#[derive(Debug)]
pub struct Rep {
    /// First job queued to journal written, seconds.
    pub wall: f64,
    /// Host time of each job, seconds, in job order.
    pub job_secs: Vec<f64>,
    /// Results of the jobs that completed, in job order.
    pub results: Vec<RunResult>,
    /// Messages of the panics that ended the other jobs.
    pub panics: Vec<String>,
    /// `harness::journal::journal_json` of `results`.
    pub journal: String,
}

/// A configured benchmark: workload, seed, sizes and pool width.
#[derive(Debug, Clone)]
pub struct Bench {
    /// What runs.
    pub workload: Workload,
    /// Seed of every experiment.
    pub seed: u64,
    /// Problem sizes.
    pub sizes: Sizes,
    /// Pool workers of set-up's cold pass and of the check repetition;
    /// timed repetitions run on [`crate::TIMED_WORKERS`].
    pub workers: usize,
    /// Directory for snapshot stores; removed by the caller.
    pub work_dir: PathBuf,
}

impl Bench {
    /// Builds every input into a fresh cache; for `warm-resume`, also runs
    /// the cold pass into a fresh store under `work_dir/store<pass>`.
    ///
    /// # Panics
    ///
    /// Panics when the store directory cannot be created.
    pub fn setup(&self, pass: usize, rec: Option<&Arc<Recorder>>) -> Prepared {
        span(rec, Layer::Setup, || {
            let cache = InputCache::new();
            let mut prepared = Prepared {
                jobs: Vec::new(),
                lookups: 0,
                builds: 0,
                store: None,
                cold: None,
            };
            for job in jobs(self.workload, &self.sizes, self.seed) {
                let (job, built) = span(rec, Layer::Prepare, || job.prepare(&cache));
                prepared.lookups += 1;
                prepared.builds += usize::from(built);
                prepared.jobs.push(job);
            }
            if self.workload == Workload::WarmResume {
                let dir = self.work_dir.join(format!("store{pass}"));
                // A leftover store from an earlier process would turn the
                // cold pass warm.
                let _ = std::fs::remove_dir_all(&dir);
                let store = SnapshotStore::open(&dir)
                    .unwrap_or_else(|e| panic!("cannot open store {}: {e}", dir.display()));
                let cold = self.run_jobs(&prepared.jobs, Some(&store), false, self.workers, rec);
                assert!(
                    cold.panics.is_empty(),
                    "cold pass failed: {:?}",
                    cold.panics
                );
                prepared.cold = Some(cold.results);
                prepared.store = Some(store);
            }
            prepared
        })
    }

    /// One timed repetition over `prepared` on `workers` pool workers.
    /// `warm-resume` restores every run from the store (`--resume`
    /// semantics: a missing snapshot is a failure).
    pub fn rep(&self, prepared: &Prepared, workers: usize, rec: Option<&Arc<Recorder>>) -> Rep {
        let store = prepared.store.as_ref();
        self.run_jobs(&prepared.jobs, store, store.is_some(), workers, rec)
    }

    fn run_jobs(
        &self,
        jobs: &[Job],
        store: Option<&SnapshotStore>,
        strict: bool,
        workers: usize,
        rec: Option<&Arc<Recorder>>,
    ) -> Rep {
        let t0 = Instant::now();
        span(rec, Layer::Rep, || {
            let tasks: Vec<_> = jobs
                .iter()
                .map(|job| {
                    move || {
                        let t = Instant::now();
                        let out = span(rec, Layer::Job, || {
                            catch_unwind(AssertUnwindSafe(|| job.run(store, strict, rec)))
                        });
                        (out.map_err(panic_message), t.elapsed().as_secs_f64())
                    }
                })
                .collect();
            let outputs = span(rec, Layer::Pool, || {
                harness::pool::run_ordered(tasks, workers)
            });
            let mut rep = Rep {
                wall: 0.0,
                job_secs: Vec::with_capacity(outputs.len()),
                results: Vec::with_capacity(outputs.len()),
                panics: Vec::new(),
                journal: String::new(),
            };
            for (out, secs) in outputs {
                rep.job_secs.push(secs);
                match out {
                    Ok(result) => rep.results.push(result),
                    Err(msg) => rep.panics.push(msg),
                }
            }
            rep.journal = span(rec, Layer::Journal, || {
                harness::journal::journal_json(self.workload.name(), &rep.results)
            });
            rep.wall = t0.elapsed().as_secs_f64();
            rep
        })
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Total size of the files under `dir`, bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
