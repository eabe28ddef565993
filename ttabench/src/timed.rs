//! Timing wrappers for the traced run.
//!
//! [`TimedSession`] and [`TimedService`] forward every method of
//! `RunSession` and `BatchService` to the wrapped value and record a span
//! around the ones that do work. [`serve_traced`] and [`fleet_traced`]
//! repeat the public calls `ServeExperiment::run` and `FleetExperiment::run`
//! make, with a [`TimedService`] around each `serve::build_service` box, so
//! time inside the devices can be told apart from the serving loop. The
//! self-tests assert that each traced form produces the journal row of
//! the untraced one.

use std::sync::Arc;

use fleet::{run_fleet, FleetConfig, FleetExperiment};
use gpu_sim::snapshot::{BagError, StateBag};
use gpu_sim::SimStats;
use serve::{build_service, serve, BatchService, ServeConfig, ServeExperiment};
use trace::TraceHandle;
use workloads::runner::sum_stats;
use workloads::{AccelReport, RunResult, RunSession};

use crate::spans::{Layer, Plat, Recorder};

/// A [`RunSession`] that records `step`, `export_state`, `import_state`
/// and `finish` spans.
pub struct TimedSession {
    inner: Box<dyn RunSession>,
    rec: Arc<Recorder>,
    plat: Plat,
}

impl TimedSession {
    /// Wraps `inner`, whose launches run on `plat`.
    pub fn new(inner: Box<dyn RunSession>, rec: Arc<Recorder>, plat: Plat) -> Self {
        TimedSession { inner, rec, plat }
    }
}

impl RunSession for TimedSession {
    fn done(&self) -> bool {
        self.inner.done()
    }

    fn steps_done(&self) -> usize {
        self.inner.steps_done()
    }

    fn snapshot_key(&self) -> &str {
        self.inner.snapshot_key()
    }

    fn step(&mut self) {
        let (rec, inner) = (&self.rec, &mut self.inner);
        rec.time(Layer::Step(self.plat), || inner.step());
    }

    fn export_state(&self) -> StateBag {
        self.rec.time(Layer::Export, || self.inner.export_state())
    }

    fn import_state(&mut self, bag: &StateBag) -> Result<(), BagError> {
        let (rec, inner) = (&self.rec, &mut self.inner);
        rec.time(Layer::Import, || inner.import_state(bag))
    }

    fn finish(self: Box<Self>) -> RunResult {
        let TimedSession { inner, rec, .. } = *self;
        rec.time(Layer::Finish, || inner.finish())
    }
}

/// A [`BatchService`] that records a span around every `run_batch`.
pub struct TimedService {
    inner: Box<dyn BatchService>,
    rec: Arc<Recorder>,
    plat: Plat,
}

impl TimedService {
    /// Wraps `inner`; the platform is read from its label.
    pub fn new(inner: Box<dyn BatchService>, rec: Arc<Recorder>) -> Self {
        let plat = Plat::from_label(&inner.label());
        TimedService { inner, rec, plat }
    }
}

impl BatchService for TimedService {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn query_count(&self) -> usize {
        self.inner.query_count()
    }

    fn warp_width(&self) -> usize {
        self.inner.warp_width()
    }

    fn run_batch(&mut self, ids: &[usize]) -> SimStats {
        let (rec, inner) = (&self.rec, &mut self.inner);
        rec.time(Layer::RunBatch(self.plat), || inner.run_batch(ids))
    }

    fn accel_report(&self) -> Option<AccelReport> {
        self.inner.accel_report()
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.inner.set_trace(trace);
    }

    fn export_state(&self) -> StateBag {
        self.inner.export_state()
    }

    fn import_state(&mut self, bag: &StateBag) -> Result<(), BagError> {
        self.inner.import_state(bag)
    }
}

/// `ServeExperiment::run` (with no Chrome trace directory) through a
/// [`TimedService`].
///
/// # Panics
///
/// Panics when the experiment has no prepared inputs, or as
/// `ServeExperiment::run` does.
pub fn serve_traced(e: &ServeExperiment, rec: &Arc<Recorder>) -> RunResult {
    let inputs = e.inputs.as_ref().expect("serving jobs are prepared");
    let (mut svc, arrivals) = rec.time(Layer::Open, || {
        let max_batch = e.policy.max_batch(e.gpu.warp_width);
        let svc = build_service(&e.workload, e.backend, inputs, &e.gpu, max_batch, e.verify);
        let arrivals =
            workloads::gen::exponential_arrivals(e.offered, e.arrival_mean_cycles, e.seed);
        (TimedService::new(svc, Arc::clone(rec)), arrivals)
    });
    let cfg = ServeConfig {
        policy: e.policy.clone(),
        queue_capacity: e.queue_capacity,
        trace: TraceHandle::default(),
    };
    let outcome = rec.time(Layer::ServeLoop, || serve(&mut svc, &cfg, &arrivals));
    rec.time(Layer::Finish, || {
        let summary = serve::summarize(
            &e.policy.label(),
            &svc.label(),
            e.arrival_mean_cycles,
            &outcome,
        );
        RunResult {
            label: format!(
                "serve {} {} {} mean{}",
                e.workload.name(),
                svc.label(),
                e.policy.label(),
                e.arrival_mean_cycles
            ),
            stats: sum_stats(&outcome.launch_stats),
            accel: svc.accel_report(),
            serve: Some(summary),
            fleet: None,
        }
    })
}

/// `FleetExperiment::run` (with no Chrome trace directory) with a
/// [`TimedService`] around every device.
///
/// # Panics
///
/// Panics when the experiment has no prepared inputs, or as
/// `FleetExperiment::run` does.
pub fn fleet_traced(e: &FleetExperiment, rec: &Arc<Recorder>) -> RunResult {
    let inputs = e.inputs.as_ref().expect("fleet jobs are prepared");
    let (mut services, arrivals, classes) = rec.time(Layer::Open, || {
        let max_batch = e.policy.max_batch(e.gpu.warp_width);
        let services: Vec<Box<dyn BatchService>> = (0..e.devices)
            .map(|_| {
                let svc =
                    build_service(&e.workload, e.backend, inputs, &e.gpu, max_batch, e.verify);
                Box::new(TimedService::new(svc, Arc::clone(rec))) as Box<dyn BatchService>
            })
            .collect();
        let arrivals =
            workloads::gen::exponential_arrivals(e.offered, e.arrival_mean_cycles, e.seed);
        let classes = workloads::gen::class_assignments(e.offered, &e.slo.weights(), e.seed);
        (services, arrivals, classes)
    });
    let cfg = FleetConfig {
        policy: e.policy.clone(),
        router: e.router,
        router_seed: e.seed,
        queue_capacity: e.queue_capacity,
        shards: e.shards.clone(),
        shard_miss_penalty: e.shard_miss_penalty,
        slo: e.slo.clone(),
        autoscale: e.autoscale.clone(),
        trace: TraceHandle::default(),
    };
    let outcome = rec.time(Layer::ServeLoop, || {
        run_fleet(&mut services, &cfg, &arrivals, &classes)
    });
    rec.time(Layer::Finish, || {
        let backend = services[0].label();
        let summary = fleet::summarize(&cfg, &backend, e.arrival_mean_cycles, &outcome);
        let all_stats: Vec<SimStats> = outcome
            .per_device
            .iter()
            .flat_map(|d| d.launch_stats.iter().cloned())
            .collect();
        RunResult {
            label: format!(
                "fleet {} {} {} d{} {} mean{}",
                e.workload.name(),
                backend,
                e.router.label(),
                e.devices,
                e.policy.label(),
                e.arrival_mean_cycles
            ),
            stats: sum_stats(&all_stats),
            accel: merge_accel(services.iter().filter_map(|s| s.accel_report())),
            serve: None,
            fleet: Some(summary),
        }
    })
}

/// Sums accelerator reports across a fleet's devices, as
/// `FleetExperiment::run` does (its fold is private to `tta-fleet`).
fn merge_accel(reports: impl Iterator<Item = AccelReport>) -> Option<AccelReport> {
    let mut acc: Option<AccelReport> = None;
    for r in reports {
        let Some(a) = acc.as_mut() else {
            acc = Some(r);
            continue;
        };
        let (e, f) = (&mut a.engine, &r.engine);
        e.warps_accepted += f.warps_accepted;
        e.rays_completed += f.rays_completed;
        e.node_fetches += f.node_fetches;
        e.fetch_merges += f.fetch_merges;
        e.nodes_processed += f.nodes_processed;
        e.warp_buffer_accesses += f.warp_buffer_accesses;
        e.prefetches += f.prefetches;
        e.busy_cycles += f.busy_cycles;
        a.shader_lane_instructions += r.shader_lane_instructions;
        a.traversals += r.traversals;
        for (name, s) in r.units {
            match a.units.iter_mut().find(|(n, _)| *n == name) {
                Some((_, t)) => {
                    t.invocations += s.invocations;
                    t.busy_cycles += s.busy_cycles;
                    t.peak_in_flight = t.peak_in_flight.max(s.peak_in_flight);
                    t.total_latency += s.total_latency;
                }
                None => a.units.push((name, s)),
            }
        }
        for (name, s) in r.programs {
            match a.programs.iter_mut().find(|(n, _)| *n == name) {
                Some((_, t)) => {
                    t.invocations += s.invocations;
                    t.total_latency += s.total_latency;
                    t.icnt_cycles += s.icnt_cycles;
                }
                None => a.programs.push((name, s)),
            }
        }
    }
    acc
}
