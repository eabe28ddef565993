//! Resumable experiment sessions: each experiment's `run()` decomposed
//! into a sequence of kernel launches with *quiescent snapshot points*
//! between them.
//!
//! The simulator only snapshots between launches (warp state is transient
//! within one), so a session splits an experiment into steps — one launch
//! each — and exposes [`RunSession::export_state`] /
//! [`RunSession::import_state`] at every step boundary. The single-launch
//! workloads (B-Tree, R-Tree, RTNN) gain interior snapshot points by
//! chunking their query range; N-Body and the ray-tracing workloads step
//! through their natural multi-launch sequence.
//!
//! The parity contract: `experiment.run()` *is* `session(1)` stepped to
//! completion, so a single-chunk session produces the exact `RunResult`
//! `run()` always produced — byte-identical journals by construction. The
//! `tta-snap` differential suite then asserts the stronger property: a
//! chunked run that exports mid-way and resumes on a freshly-constructed
//! session matches the chunked straight-line run exactly.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use geometry::{Ray, Vec3};
use gpu_sim::kernel::Kernel;
use gpu_sim::snapshot::{BagError, SnapValue, StateBag};
use gpu_sim::{Gpu, SimStats};
use rta::bvh_semantics::{
    read_ray_result, write_ray_record, BvhSemantics, LeafGeometry, RayQueryMode, RAY_RECORD_SIZE,
};
use rta::units::TestKind;
use trace::fields::Writer;
use trace::ChromeTraceSink;
use trees::bvh::PrimitiveKind;
use trees::BTreeFlavor;
use tta::btree_sem::{read_query_result, write_query_record, BTreeSemantics};
use tta::nbody_sem::{read_nbody_result, write_nbody_record, BarnesHutSemantics};
use tta::radius_sem::{read_radius_result, write_radius_record, RadiusSearchSemantics};
use tta::rtree_sem::{read_range_result, write_range_record, RTreeSemantics};

use crate::btree::{traverse_only_kernel, BTreeExperiment, BTreeInputs};
use crate::cacheable::CacheableExperiment;
use crate::gen;
use crate::kernels::{
    btree_search_kernel, bvh_trace_kernel, nbody_force_kernel, nbody_integrate_kernel,
    THREAD_STACK_BYTES,
};
use crate::lumibench::{rt_kernel_for, RtExperiment, RtInputs, RtWorkload};
use crate::nbody::{merged_traverse_integrate_kernel, NBodyExperiment, NBodyInputs, PostProcess};
use crate::rtnn::{LeafPath, RtnnExperiment, RtnnInputs};
use crate::rtree::{rtree_range_kernel, RTreeExperiment, RTreeInputs};
use crate::runner::{attach_platform, build_gpu, harvest_accel, sum_stats, Platform, RunResult};

/// A resumable experiment run: a fixed sequence of launches with snapshot
/// points between them.
pub trait RunSession {
    /// `true` once every launch has executed; [`RunSession::finish`] may
    /// then be called.
    fn done(&self) -> bool;

    /// Launches executed so far.
    fn steps_done(&self) -> usize;

    /// The session's configuration key: the string
    /// [`RunSession::import_state`] checks a snapshot against. Snapshot
    /// stores use it as the storage key, so equal-configuration sessions
    /// share an entry and everything else misses.
    fn snapshot_key(&self) -> &str;

    /// Executes the next launch.
    ///
    /// # Panics
    ///
    /// Panics when the session is already [`RunSession::done`].
    fn step(&mut self);

    /// Exports the full session state (simulator + cursor + accumulated
    /// per-launch stats) at the current quiescent point.
    fn export_state(&self) -> StateBag;

    /// Overlays a previously exported state onto this freshly-constructed
    /// session; subsequent steps replay exactly as the exporting session
    /// would have.
    ///
    /// # Errors
    ///
    /// [`BagError::Mismatch`] when the snapshot was taken by a session with
    /// a different configuration key, [`BagError`] variants from the
    /// simulator when the simulator state does not fit.
    fn import_state(&mut self, bag: &StateBag) -> Result<(), BagError>;

    /// Verifies (when configured) and harvests the final [`RunResult`].
    ///
    /// # Panics
    ///
    /// Panics when the session is not [`RunSession::done`], or when
    /// verification fails.
    fn finish(self: Box<Self>) -> RunResult;
}

/// Splits `n` work items into `chunks` contiguous `(start, len)` ranges.
/// Clamps to at least one chunk and at most one chunk per item; the last
/// chunk absorbs the remainder.
fn split_chunks(n: usize, chunks: usize) -> Vec<(usize, usize)> {
    let chunks = chunks.clamp(1, n.max(1));
    let base = n / chunks;
    let extra = n % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < extra);
        out.push((start, len));
        start += len;
    }
    out
}

/// Exports the state shared by every session kind: the configuration key
/// (restore-target check), the step cursor, the per-launch stats collected
/// so far, and the full simulator state.
fn export_core(key: &str, cursor: usize, parts: &[SimStats], gpu: &Gpu) -> StateBag {
    let mut bag = StateBag::new();
    bag.put_bytes("key", key.as_bytes().to_vec());
    bag.put_u64("cursor", cursor as u64);
    bag.records("parts", parts);
    bag.put_bag("gpu", gpu.export_state());
    bag
}

/// Restores what [`export_core`] wrote, returning `(cursor, parts)`.
fn import_core(
    bag: &StateBag,
    key: &str,
    gpu: &mut Gpu,
) -> Result<(usize, Vec<SimStats>), BagError> {
    let got = bag.bytes("key")?;
    if got != key.as_bytes() {
        return Err(BagError::Mismatch(format!(
            "snapshot key `{}` does not match this session's `{key}`",
            String::from_utf8_lossy(got)
        )));
    }
    gpu.import_state(bag.bag("gpu")?)?;
    let cursor = usize::try_from(bag.u64("cursor")?)
        .map_err(|_| BagError::Mismatch("cursor overflows usize".into()))?;
    let parts: Vec<SimStats> = bag.fields("parts")?;
    if parts.len() != cursor {
        return Err(BagError::Mismatch(format!(
            "snapshot has {} launch parts but cursor {cursor}",
            parts.len()
        )));
    }
    Ok((cursor, parts))
}

/// Runs a session to completion and harvests the result — the body every
/// experiment's `run()` delegates to.
pub fn run_to_end(mut session: Box<dyn RunSession>) -> RunResult {
    while !session.done() {
        session.step();
    }
    session.finish()
}

// ---------------------------------------------------------------- B-Tree

/// A resumable [`BTreeExperiment`] run (query-range chunked).
pub struct BTreeSession {
    exp: BTreeExperiment,
    inputs: Arc<BTreeInputs>,
    queries: Vec<u32>,
    gpu: Gpu,
    sink: Option<Rc<RefCell<ChromeTraceSink>>>,
    kernel: Kernel,
    qbase: u64,
    tree_base: u64,
    chunks: Vec<(usize, usize)>,
    cursor: usize,
    parts: Vec<SimStats>,
    key: String,
}

impl BTreeExperiment {
    /// Opens a resumable session over this experiment, splitting the query
    /// range into `chunks` launches. `run()` is exactly `session(1)`
    /// stepped to completion.
    pub fn session(&self, chunks: usize) -> BTreeSession {
        use tta::btree_sem::QUERY_RECORD_SIZE;
        let inputs = match &self.inputs {
            Some(i) => Arc::clone(i),
            None => Arc::new(self.build_inputs()),
        };
        let queries: Vec<u32> = if self.sort_queries {
            let mut q = inputs.queries.clone();
            q.sort_unstable();
            q
        } else {
            inputs.queries.clone()
        };
        let ser = &inputs.ser;
        let mem_bytes =
            (ser.image.len() + self.queries * QUERY_RECORD_SIZE + (1 << 20)).next_power_of_two();
        let mut gpu = build_gpu(&self.gpu, mem_bytes);
        let (trace, sink) = crate::runner::trace_pair(self.trace_dir.as_deref());
        gpu.set_trace(trace);
        let tree_base = gpu.gmem.alloc(ser.image.len(), 64);
        gpu.gmem.write_bytes(tree_base, ser.image.as_bytes());
        let qbase = gpu.gmem.alloc(self.queries * QUERY_RECORD_SIZE, 64);
        for (i, &q) in queries.iter().enumerate() {
            write_query_record(&mut gpu.gmem, qbase + (i * QUERY_RECORD_SIZE) as u64, q);
        }

        let bplus = self.flavor == BTreeFlavor::BPlus;
        let (inner_test, leaf_test) = match &self.platform {
            Platform::TtaPlus(..) | Platform::TtaPlusWith(..) => {
                (TestKind::Program(0), TestKind::Program(1))
            }
            _ => (TestKind::QueryKey, TestKind::QueryKey),
        };
        attach_platform(&mut gpu, &self.platform, move || {
            vec![Box::new(BTreeSemantics {
                tree_base,
                bplus,
                inner_test,
                leaf_test,
            })]
        });

        let kernel = if self.platform.has_accelerator() {
            traverse_only_kernel(QUERY_RECORD_SIZE as u32)
        } else {
            btree_search_kernel(bplus)
        };
        let chunk_list = split_chunks(self.queries, chunks);
        let key = format!(
            "{}|{}|sort={}|chunks={}",
            self.inputs_key(),
            self.platform.label(),
            self.sort_queries,
            chunk_list.len()
        );
        BTreeSession {
            exp: self.clone(),
            inputs,
            queries,
            gpu,
            sink,
            kernel,
            qbase,
            tree_base,
            chunks: chunk_list,
            cursor: 0,
            parts: Vec::new(),
            key,
        }
    }
}

impl BTreeSession {
    fn into_result(self) -> RunResult {
        use tta::btree_sem::QUERY_RECORD_SIZE;
        assert!(self.cursor == self.chunks.len(), "session not done");
        if self.exp.verify {
            for (i, &q) in self.queries.iter().enumerate().step_by(17) {
                let (found, visited) =
                    read_query_result(&self.gpu.gmem, self.qbase + (i * QUERY_RECORD_SIZE) as u64);
                let oracle = self.inputs.tree.search(q);
                assert_eq!(
                    found, oracle.found,
                    "{:?} query {q} found mismatch",
                    self.exp.flavor
                );
                assert_eq!(
                    visited as usize, oracle.nodes_visited,
                    "{:?} query {q} path mismatch",
                    self.exp.flavor
                );
            }
        }
        let result = RunResult {
            label: format!(
                "{} {}k keys {}",
                self.exp.flavor,
                self.exp.keys / 1000,
                self.exp.platform.label()
            ),
            stats: sum_stats(&self.parts),
            accel: harvest_accel(&self.gpu),
            serve: None,
            fleet: None,
        };
        if let (Some(dir), Some(sink)) = (&self.exp.trace_dir, &self.sink) {
            crate::runner::write_trace(dir, &result.label, sink);
        }
        result
    }
}

impl RunSession for BTreeSession {
    fn done(&self) -> bool {
        self.cursor == self.chunks.len()
    }

    fn steps_done(&self) -> usize {
        self.cursor
    }

    fn snapshot_key(&self) -> &str {
        &self.key
    }

    fn step(&mut self) {
        use tta::btree_sem::QUERY_RECORD_SIZE;
        let (start, len) = self.chunks[self.cursor];
        let q = self.qbase + (start * QUERY_RECORD_SIZE) as u64;
        self.parts.push(
            self.gpu
                .launch(&self.kernel, len, &[q as u32, self.tree_base as u32]),
        );
        self.cursor += 1;
    }

    fn export_state(&self) -> StateBag {
        export_core(&self.key, self.cursor, &self.parts, &self.gpu)
    }

    fn import_state(&mut self, bag: &StateBag) -> Result<(), BagError> {
        let (cursor, parts) = import_core(bag, &self.key, &mut self.gpu)?;
        if cursor > self.chunks.len() {
            return Err(BagError::Mismatch(format!(
                "cursor {cursor} past the {}-chunk plan",
                self.chunks.len()
            )));
        }
        self.cursor = cursor;
        self.parts = parts;
        Ok(())
    }

    fn finish(self: Box<Self>) -> RunResult {
        self.into_result()
    }
}

// ---------------------------------------------------------------- R-Tree

/// A resumable [`RTreeExperiment`] run (query-range chunked).
pub struct RTreeSession {
    exp: RTreeExperiment,
    inputs: Arc<RTreeInputs>,
    gpu: Gpu,
    kernel: Kernel,
    qbase: u64,
    tree_base: u64,
    stacks: u64,
    entry_base: u64,
    chunks: Vec<(usize, usize)>,
    cursor: usize,
    parts: Vec<SimStats>,
    key: String,
}

impl RTreeExperiment {
    /// Opens a resumable session, splitting the query range into `chunks`
    /// launches. `run()` is exactly `session(1)` stepped to completion.
    pub fn session(&self, chunks: usize) -> RTreeSession {
        use tta::rtree_sem::QUERY_RECORD_SIZE;
        let inputs = match &self.inputs {
            Some(i) => Arc::clone(i),
            None => Arc::new(self.build_inputs()),
        };
        let ser = &inputs.ser;
        let mem = (ser.image.len()
            + self.queries * (QUERY_RECORD_SIZE + THREAD_STACK_BYTES as usize)
            + (1 << 20))
            .next_power_of_two();
        let mut gpu = build_gpu(&self.gpu, mem);
        let tree_base = gpu.gmem.alloc(ser.image.len(), 64);
        gpu.gmem.write_bytes(tree_base, ser.image.as_bytes());
        let entry_base = tree_base + ser.entry_base as u64;
        let qbase = gpu.gmem.alloc(self.queries * QUERY_RECORD_SIZE, 64);
        for (i, q) in inputs.queries.iter().enumerate() {
            write_range_record(&mut gpu.gmem, qbase + (i * QUERY_RECORD_SIZE) as u64, q);
        }
        let stacks = gpu
            .gmem
            .alloc(self.queries * THREAD_STACK_BYTES as usize, 64);

        let is_plus = matches!(
            self.platform,
            Platform::TtaPlus(..) | Platform::TtaPlusWith(..)
        );
        let test = if is_plus {
            TestKind::Program(0)
        } else {
            TestKind::RayBox
        };
        attach_platform(&mut gpu, &self.platform, move || {
            vec![Box::new(RTreeSemantics {
                tree_base,
                entry_base,
                inner_test: test,
                leaf_test: test,
            })]
        });

        let kernel = if self.platform.has_accelerator() {
            traverse_only_kernel(QUERY_RECORD_SIZE as u32)
        } else {
            rtree_range_kernel()
        };
        let chunk_list = split_chunks(self.queries, chunks);
        let key = format!(
            "{}|{}|chunks={}",
            self.inputs_key(),
            self.platform.label(),
            chunk_list.len()
        );
        RTreeSession {
            exp: self.clone(),
            inputs,
            gpu,
            kernel,
            qbase,
            tree_base,
            stacks,
            entry_base,
            chunks: chunk_list,
            cursor: 0,
            parts: Vec::new(),
            key,
        }
    }
}

impl RTreeSession {
    fn into_result(self) -> RunResult {
        use tta::rtree_sem::QUERY_RECORD_SIZE;
        assert!(self.cursor == self.chunks.len(), "session not done");
        if self.exp.verify {
            for (i, q) in self.inputs.queries.iter().enumerate().step_by(23) {
                let (count, visited) =
                    read_range_result(&self.gpu.gmem, self.qbase + (i * QUERY_RECORD_SIZE) as u64);
                let (oracle, ovisited) = self.inputs.tree.range_query_counted(q);
                assert_eq!(count as usize, oracle.len(), "query {i}");
                assert_eq!(visited as usize, ovisited, "query {i} visit count");
            }
        }
        RunResult {
            label: format!(
                "R-Tree {}k rects {}",
                self.exp.rects / 1000,
                self.exp.platform.label()
            ),
            stats: sum_stats(&self.parts),
            accel: harvest_accel(&self.gpu),
            serve: None,
            fleet: None,
        }
    }
}

impl RunSession for RTreeSession {
    fn done(&self) -> bool {
        self.cursor == self.chunks.len()
    }

    fn steps_done(&self) -> usize {
        self.cursor
    }

    fn snapshot_key(&self) -> &str {
        &self.key
    }

    fn step(&mut self) {
        use tta::rtree_sem::QUERY_RECORD_SIZE;
        let (start, len) = self.chunks[self.cursor];
        let q = self.qbase + (start * QUERY_RECORD_SIZE) as u64;
        let s = self.stacks + start as u64 * u64::from(THREAD_STACK_BYTES);
        self.parts.push(self.gpu.launch(
            &self.kernel,
            len,
            &[
                q as u32,
                self.tree_base as u32,
                s as u32,
                self.entry_base as u32,
            ],
        ));
        self.cursor += 1;
    }

    fn export_state(&self) -> StateBag {
        export_core(&self.key, self.cursor, &self.parts, &self.gpu)
    }

    fn import_state(&mut self, bag: &StateBag) -> Result<(), BagError> {
        let (cursor, parts) = import_core(bag, &self.key, &mut self.gpu)?;
        if cursor > self.chunks.len() {
            return Err(BagError::Mismatch(format!(
                "cursor {cursor} past the {}-chunk plan",
                self.chunks.len()
            )));
        }
        self.cursor = cursor;
        self.parts = parts;
        Ok(())
    }

    fn finish(self: Box<Self>) -> RunResult {
        self.into_result()
    }
}

// ------------------------------------------------------------------ RTNN

/// A resumable [`RtnnExperiment`] run (query-range chunked).
pub struct RtnnSession {
    exp: RtnnExperiment,
    inputs: Arc<RtnnInputs>,
    gpu: Gpu,
    sink: Option<Rc<RefCell<ChromeTraceSink>>>,
    kernel: Kernel,
    qbase: u64,
    tree_base: u64,
    chunks: Vec<(usize, usize)>,
    cursor: usize,
    parts: Vec<SimStats>,
    key: String,
}

impl RtnnExperiment {
    /// Opens a resumable session, splitting the query range into `chunks`
    /// launches. `run()` is exactly `session(1)` stepped to completion.
    pub fn session(&self, chunks: usize) -> RtnnSession {
        use tta::radius_sem::QUERY_RECORD_SIZE;
        let inputs = match &self.inputs {
            Some(i) => Arc::clone(i),
            None => Arc::new(self.build_inputs()),
        };
        let ser = &inputs.ser;
        let mem =
            (ser.image.len() + self.queries * QUERY_RECORD_SIZE + (1 << 20)).next_power_of_two();
        let mut gpu = build_gpu(&self.gpu, mem);
        let (trace, sink) = crate::runner::trace_pair(self.trace_dir.as_deref());
        gpu.set_trace(trace);
        let tree_base = gpu.gmem.alloc(ser.image.len(), 64);
        gpu.gmem.write_bytes(tree_base, ser.image.as_bytes());
        let prim_base = tree_base + ser.prim_base as u64;

        let qbase = gpu.gmem.alloc(self.queries * QUERY_RECORD_SIZE, 64);
        for (i, &q) in inputs.queries.iter().enumerate() {
            write_radius_record(
                &mut gpu.gmem,
                qbase + (i * QUERY_RECORD_SIZE) as u64,
                q,
                self.radius,
            );
        }

        let is_plus = matches!(
            self.platform,
            Platform::TtaPlus(..) | Platform::TtaPlusWith(..)
        );
        let inner_test = if is_plus {
            TestKind::Program(0)
        } else {
            TestKind::RayBox
        };
        let leaf_test = match (self.leaf, is_plus) {
            (LeafPath::Shader, _) => TestKind::IntersectionShader,
            (LeafPath::Offloaded, false) => TestKind::PointToPoint,
            (LeafPath::Offloaded, true) => TestKind::Program(1),
        };
        attach_platform(&mut gpu, &self.platform, move || {
            vec![Box::new(RadiusSearchSemantics {
                tree_base,
                prim_base,
                inner_test,
                leaf_test,
            })]
        });

        let kernel = traverse_only_kernel(QUERY_RECORD_SIZE as u32);
        let chunk_list = split_chunks(self.queries, chunks);
        let key = format!(
            "{}|{}|{:?}|chunks={}",
            self.inputs_key(),
            self.platform.label(),
            self.leaf,
            chunk_list.len()
        );
        RtnnSession {
            exp: self.clone(),
            inputs,
            gpu,
            sink,
            kernel,
            qbase,
            tree_base,
            chunks: chunk_list,
            cursor: 0,
            parts: Vec::new(),
            key,
        }
    }
}

impl RtnnSession {
    fn into_result(self) -> RunResult {
        use tta::radius_sem::QUERY_RECORD_SIZE;
        assert!(self.cursor == self.chunks.len(), "session not done");
        if self.exp.verify {
            for (i, &q) in self.inputs.queries.iter().enumerate().step_by(29) {
                let (count, _) =
                    read_radius_result(&self.gpu.gmem, self.qbase + (i * QUERY_RECORD_SIZE) as u64);
                let oracle = self.inputs.bvh.points_within(q, self.exp.radius).len() as u32;
                assert_eq!(count, oracle, "query {i} at {q}");
            }
        }
        let result = RunResult {
            label: format!(
                "{}RTNN {}k pts {}",
                if self.exp.leaf == LeafPath::Offloaded {
                    "*"
                } else {
                    ""
                },
                self.exp.points / 1000,
                self.exp.platform.label()
            ),
            stats: sum_stats(&self.parts),
            accel: harvest_accel(&self.gpu),
            serve: None,
            fleet: None,
        };
        if let (Some(dir), Some(sink)) = (&self.exp.trace_dir, &self.sink) {
            crate::runner::write_trace(dir, &result.label, sink);
        }
        result
    }
}

impl RunSession for RtnnSession {
    fn done(&self) -> bool {
        self.cursor == self.chunks.len()
    }

    fn steps_done(&self) -> usize {
        self.cursor
    }

    fn snapshot_key(&self) -> &str {
        &self.key
    }

    fn step(&mut self) {
        use tta::radius_sem::QUERY_RECORD_SIZE;
        let (start, len) = self.chunks[self.cursor];
        let q = self.qbase + (start * QUERY_RECORD_SIZE) as u64;
        self.parts.push(
            self.gpu
                .launch(&self.kernel, len, &[q as u32, self.tree_base as u32]),
        );
        self.cursor += 1;
    }

    fn export_state(&self) -> StateBag {
        export_core(&self.key, self.cursor, &self.parts, &self.gpu)
    }

    fn import_state(&mut self, bag: &StateBag) -> Result<(), BagError> {
        let (cursor, parts) = import_core(bag, &self.key, &mut self.gpu)?;
        if cursor > self.chunks.len() {
            return Err(BagError::Mismatch(format!(
                "cursor {cursor} past the {}-chunk plan",
                self.chunks.len()
            )));
        }
        self.cursor = cursor;
        self.parts = parts;
        Ok(())
    }

    fn finish(self: Box<Self>) -> RunResult {
        self.into_result()
    }
}

// ---------------------------------------------------------------- N-Body

/// A resumable [`NBodyExperiment`] run: one step per launch of its
/// platform/post-process launch plan.
pub struct NBodySession {
    exp: NBodyExperiment,
    inputs: Arc<NBodyInputs>,
    gpu: Gpu,
    sink: Option<Rc<RefCell<ChromeTraceSink>>>,
    plan: Vec<(Kernel, usize, [u32; 4])>,
    qbase: u64,
    cursor: usize,
    parts: Vec<SimStats>,
    key: String,
}

impl NBodyExperiment {
    /// Opens a resumable session stepping through the experiment's launch
    /// plan (1 launch for `PostProcess::None`/`Merged` on an accelerator,
    /// 2 for `Split` and the integrating baseline). `run()` is exactly
    /// `session(1)` stepped to completion — the chunk argument every other
    /// session takes does not apply here, so there is none.
    pub fn session(&self) -> NBodySession {
        use tta::nbody_sem::QUERY_RECORD_SIZE;
        let inputs = match &self.inputs {
            Some(i) => Arc::clone(i),
            None => Arc::new(self.build_inputs()),
        };
        let ser = &inputs.ser;
        let mem = (ser.image.len()
            + self.bodies * (QUERY_RECORD_SIZE + THREAD_STACK_BYTES as usize + 12)
            + (1 << 20))
            .next_power_of_two();
        let mut gpu = build_gpu(&self.gpu, mem);
        let (trace, sink) = crate::runner::trace_pair(self.trace_dir.as_deref());
        gpu.set_trace(trace);
        let tree_base = gpu.gmem.alloc(ser.image.len(), 64);
        gpu.gmem.write_bytes(tree_base, ser.image.as_bytes());
        let particle_base = tree_base + ser.particle_base as u64;
        let qbase = gpu.gmem.alloc(self.bodies * QUERY_RECORD_SIZE, 64);
        for (i, p) in inputs.particles.iter().enumerate() {
            write_nbody_record(
                &mut gpu.gmem,
                qbase + (i * QUERY_RECORD_SIZE) as u64,
                p.pos,
                self.theta,
            );
        }
        let stacks = gpu
            .gmem
            .alloc(self.bodies * THREAD_STACK_BYTES as usize, 64);
        let vels = gpu.gmem.alloc(self.bodies * 12, 64);

        let (open_test, force_test) = match &self.platform {
            Platform::TtaPlus(..) | Platform::TtaPlusWith(..) => {
                (TestKind::Program(0), TestKind::Program(1))
            }
            _ => (TestKind::PointToPoint, TestKind::IntersectionShader),
        };
        // The TTA deferred-force billing of `run()` (see `nbody.rs`).
        let platform = match &self.platform {
            Platform::Tta(cfg) => {
                let mut cfg = cfg.clone();
                cfg.rta.shader_callback_latency = 120;
                cfg.rta.shader_interval = 2;
                cfg.rta.shader_instructions = 12;
                Platform::Tta(cfg)
            }
            other => other.clone(),
        };
        attach_platform(&mut gpu, &platform, move || {
            vec![Box::new(BarnesHutSemantics {
                tree_base,
                particle_base,
                open_test,
                force_test,
            })]
        });

        let launch_params = [qbase as u32, tree_base as u32, stacks as u32, vels as u32];
        let mut plan = Vec::new();
        if self.platform.has_accelerator() {
            match self.post {
                PostProcess::Merged => {
                    plan.push((
                        merged_traverse_integrate_kernel(),
                        self.bodies,
                        launch_params,
                    ));
                }
                PostProcess::Split => {
                    plan.push((
                        traverse_only_kernel(QUERY_RECORD_SIZE as u32),
                        self.bodies,
                        launch_params,
                    ));
                    plan.push((nbody_integrate_kernel(), self.bodies, launch_params));
                }
                PostProcess::None => {
                    plan.push((
                        traverse_only_kernel(QUERY_RECORD_SIZE as u32),
                        self.bodies,
                        launch_params,
                    ));
                }
            }
        } else {
            let force_params = [
                qbase as u32,
                tree_base as u32,
                stacks as u32,
                particle_base as u32,
            ];
            plan.push((nbody_force_kernel(), self.bodies, force_params));
            if self.post != PostProcess::None {
                plan.push((nbody_integrate_kernel(), self.bodies, launch_params));
            }
        }
        let key = format!(
            "{}|{}|{:?}",
            self.inputs_key(),
            self.platform.label(),
            self.post
        );
        NBodySession {
            exp: self.clone(),
            inputs,
            gpu,
            sink,
            plan,
            qbase,
            cursor: 0,
            parts: Vec::new(),
            key,
        }
    }
}

impl NBodySession {
    fn into_result(mut self) -> RunResult {
        use tta::nbody_sem::QUERY_RECORD_SIZE;
        assert!(self.cursor == self.plan.len(), "session not done");
        if self.exp.verify {
            for (i, p) in self.inputs.particles.iter().enumerate().step_by(61) {
                let (force, _) =
                    read_nbody_result(&self.gpu.gmem, self.qbase + (i * QUERY_RECORD_SIZE) as u64);
                let oracle = self.inputs.tree.force_on(p.pos, self.exp.theta);
                let err = (force - oracle).length();
                assert!(
                    err <= 2e-2 * oracle.length().max(1.0),
                    "body {i}: force {force} vs oracle {oracle}"
                );
            }
        }
        let result = RunResult {
            label: format!(
                "N-Body {}D {} {}{}",
                self.exp.dims,
                self.exp.bodies,
                self.exp.platform.label(),
                match self.exp.post {
                    PostProcess::Merged => " merged",
                    PostProcess::Split => " split",
                    PostProcess::None => "",
                }
            ),
            stats: sum_stats(&self.parts),
            accel: harvest_accel(&self.gpu),
            serve: None,
            fleet: None,
        };
        self.parts.clear();
        if let (Some(dir), Some(sink)) = (&self.exp.trace_dir, &self.sink) {
            crate::runner::write_trace(dir, &result.label, sink);
        }
        result
    }
}

impl RunSession for NBodySession {
    fn done(&self) -> bool {
        self.cursor == self.plan.len()
    }

    fn steps_done(&self) -> usize {
        self.cursor
    }

    fn snapshot_key(&self) -> &str {
        &self.key
    }

    fn step(&mut self) {
        let (kernel, threads, params) = &self.plan[self.cursor];
        self.parts.push(self.gpu.launch(kernel, *threads, params));
        self.cursor += 1;
    }

    fn export_state(&self) -> StateBag {
        export_core(&self.key, self.cursor, &self.parts, &self.gpu)
    }

    fn import_state(&mut self, bag: &StateBag) -> Result<(), BagError> {
        let (cursor, parts) = import_core(bag, &self.key, &mut self.gpu)?;
        if cursor > self.plan.len() {
            return Err(BagError::Mismatch(format!(
                "cursor {cursor} past the {}-launch plan",
                self.plan.len()
            )));
        }
        self.cursor = cursor;
        self.parts = parts;
        Ok(())
    }

    fn finish(self: Box<Self>) -> RunResult {
        self.into_result()
    }
}

// ------------------------------------------------------------ LumiBench

/// A resumable [`RtExperiment`] run: step 0 is the primary pass, each
/// further step one secondary pass. The surfels extracted from the primary
/// hits are part of the exported state — secondary rounds overwrite the
/// ray records they were read from, so they cannot be recovered from
/// memory after round 1.
pub struct RtSession {
    exp: RtExperiment,
    inputs: Arc<RtInputs>,
    gpu: Gpu,
    qbase: u64,
    launch_params: [u32; 4],
    is_simt: bool,
    primary: Vec<Ray>,
    surfels: Option<Vec<(Vec3, Vec3, Vec3)>>,
    cursor: usize,
    parts: Vec<SimStats>,
    key: String,
}

impl RtExperiment {
    /// Opens a resumable session. `run()` is exactly this session stepped
    /// to completion; the step count is 1 (primary) plus the workload's
    /// secondary rounds (0 when the primary pass hits nothing).
    ///
    /// # Panics
    ///
    /// Panics on the same platform/feature conflicts `run()` rejects.
    pub fn session(&self) -> RtSession {
        let is_plus = matches!(
            self.platform,
            Platform::TtaPlus(..) | Platform::TtaPlusWith(..)
        );
        let is_simt = !self.platform.has_accelerator();
        assert!(
            !self.sato || is_plus,
            "SATO needs TTA+'s programmable traversal (the paper's *SHIP_SH)"
        );
        assert!(
            !self.offload_sphere || is_plus,
            "Ray-Sphere offload needs TTA+'s SQRT unit (the paper's *WKND_PT)"
        );
        assert!(
            !is_simt || !self.workload.uses_spheres(),
            "the baseline SIMT trace kernel supports triangle scenes only"
        );

        let inputs = match &self.inputs {
            Some(i) => Arc::clone(i),
            None => Arc::new(self.build_inputs()),
        };
        let ser = &inputs.ser;
        let n = self.width * self.height;
        let mem =
            (ser.image.len() + 2 * n * (RAY_RECORD_SIZE + THREAD_STACK_BYTES as usize) + (1 << 21))
                .next_power_of_two();
        let mut gpu = build_gpu(&self.gpu, mem);
        gpu.perfect_node_fetch = self.perfect_node_fetch;
        let tree_base = gpu.gmem.alloc(ser.image.len(), 64);
        gpu.gmem.write_bytes(tree_base, ser.image.as_bytes());
        let prim_base = tree_base + ser.prim_base as u64;
        let qbase = gpu.gmem.alloc(n * RAY_RECORD_SIZE, 64);
        let stacks = gpu.gmem.alloc(n * THREAD_STACK_BYTES as usize, 64);

        let leaf = match ser.prim_kind {
            PrimitiveKind::Triangle => LeafGeometry::TRIANGLE,
            PrimitiveKind::Sphere => LeafGeometry::Sphere {
                test: if self.offload_sphere {
                    TestKind::Program(0)
                } else {
                    TestKind::IntersectionShader
                },
            },
        };
        let am = self.workload == RtWorkload::LeafAm;
        let anyhit_leaf = if am {
            LeafGeometry::Triangle {
                test: TestKind::IntersectionShader,
            }
        } else {
            leaf
        };
        let sato = self.sato;
        attach_platform(&mut gpu, &self.platform, move || {
            let closest = BvhSemantics {
                tree_base,
                prim_base,
                leaf,
                mode: RayQueryMode::ClosestHit,
                sato: false,
            };
            let any = BvhSemantics {
                tree_base,
                prim_base,
                leaf: anyhit_leaf,
                mode: RayQueryMode::AnyHit,
                sato,
            };
            vec![Box::new(closest), Box::new(any)]
        });

        let (eye, target) = self.camera(&inputs.bvh);
        let primary = gen::camera_rays(self.width, self.height, eye, target);
        let launch_params = [
            qbase as u32,
            tree_base as u32,
            stacks as u32,
            prim_base as u32,
        ];
        let key = format!(
            "{}|{}|{}x{}|sato={}|sphere={}|perfect={}",
            self.inputs_key(),
            self.platform.label(),
            self.width,
            self.height,
            self.sato,
            self.offload_sphere,
            self.perfect_node_fetch
        );
        RtSession {
            exp: self.clone(),
            inputs,
            gpu,
            qbase,
            launch_params,
            is_simt,
            primary,
            surfels: None,
            cursor: 0,
            parts: Vec::new(),
            key,
        }
    }
}

impl RtSession {
    fn rounds(&self) -> Option<usize> {
        let surfels = self.surfels.as_ref()?;
        Some(if surfels.is_empty() {
            0
        } else if self.exp.workload == RtWorkload::ShipSh {
            4
        } else {
            1
        })
    }

    fn step_primary(&mut self) {
        for (i, r) in self.primary.iter().enumerate() {
            write_ray_record(
                &mut self.gpu.gmem,
                self.qbase + (i * RAY_RECORD_SIZE) as u64,
                r,
            );
        }
        let kernel = if self.is_simt {
            bvh_trace_kernel()
        } else {
            rt_kernel_for(0)
        };
        let n = self.primary.len();
        self.parts
            .push(self.gpu.launch(&kernel, n, &self.launch_params));

        if self.exp.verify {
            for (i, r) in self.primary.iter().enumerate().step_by(97) {
                let (t, prim, ..) =
                    read_ray_result(&self.gpu.gmem, self.qbase + (i * RAY_RECORD_SIZE) as u64);
                let (oracle, _) = self.inputs.bvh.closest_hit(r);
                match oracle {
                    Some(h) => {
                        assert_eq!(prim, h.prim as u32, "{} ray {i}", self.exp.workload);
                        assert!((t - h.t).abs() < 1e-3 * h.t.max(1.0));
                    }
                    None => assert_eq!(prim, u32::MAX, "{} ray {i}", self.exp.workload),
                }
            }
        }

        let mut surfels = Vec::new();
        for (i, r) in self.primary.iter().enumerate() {
            let (t, prim, ..) =
                read_ray_result(&self.gpu.gmem, self.qbase + (i * RAY_RECORD_SIZE) as u64);
            if t.is_finite() {
                let p = r.at(t);
                let nrm = crate::lumibench::prim_normal(&self.inputs.bvh, prim as usize, p, r.dir);
                surfels.push((p + nrm * 1e-3, nrm, r.dir));
            }
        }
        self.surfels = Some(surfels);
    }

    fn step_secondary(&mut self, round: u32) {
        let surfels = self.surfels.as_ref().expect("primary pass ran");
        let (rays, pipeline) = self.exp.secondary_rays(surfels, round);
        for (i, r) in rays.iter().enumerate() {
            write_ray_record(
                &mut self.gpu.gmem,
                self.qbase + (i * RAY_RECORD_SIZE) as u64,
                r,
            );
        }
        let kernel = if self.is_simt {
            bvh_trace_kernel()
        } else {
            rt_kernel_for(pipeline)
        };
        self.parts
            .push(self.gpu.launch(&kernel, rays.len(), &self.launch_params));
    }

    fn into_result(self) -> RunResult {
        assert!(
            self.rounds().is_some_and(|r| self.cursor == 1 + r),
            "session not done"
        );
        let star = self.exp.sato || self.exp.offload_sphere;
        RunResult {
            label: format!(
                "{}{} {}",
                if star { "*" } else { "" },
                self.exp.workload,
                self.exp.platform.label()
            ),
            stats: sum_stats(&self.parts),
            accel: harvest_accel(&self.gpu),
            serve: None,
            fleet: None,
        }
    }
}

impl RunSession for RtSession {
    fn done(&self) -> bool {
        self.rounds().is_some_and(|r| self.cursor == 1 + r)
    }

    fn steps_done(&self) -> usize {
        self.cursor
    }

    fn snapshot_key(&self) -> &str {
        &self.key
    }

    fn step(&mut self) {
        assert!(!self.done(), "session already done");
        if self.cursor == 0 {
            self.step_primary();
        } else {
            self.step_secondary(self.cursor as u32 - 1);
        }
        self.cursor += 1;
    }

    fn export_state(&self) -> StateBag {
        let mut bag = export_core(&self.key, self.cursor, &self.parts, &self.gpu);
        if let Some(surfels) = &self.surfels {
            // 9 f32s per surfel (offset point, normal, incoming dir),
            // bit-exact via to_bits.
            let mut bytes = Vec::with_capacity(surfels.len() * 36);
            for (p, n, d) in surfels {
                for v in [p, n, d] {
                    for c in [v.x, v.y, v.z] {
                        bytes.extend_from_slice(&c.to_bits().to_le_bytes());
                    }
                }
            }
            bag.put_bytes("surfels", bytes);
        }
        bag
    }

    fn import_state(&mut self, bag: &StateBag) -> Result<(), BagError> {
        let (cursor, parts) = import_core(bag, &self.key, &mut self.gpu)?;
        let surfels = match bag.get("surfels") {
            None => None,
            Some(SnapValue::Bytes(bytes)) => {
                if bytes.len() % 36 != 0 {
                    return Err(BagError::Mismatch(format!(
                        "surfel blob of {} bytes is not a multiple of 36",
                        bytes.len()
                    )));
                }
                let f =
                    |c: &[u8]| f32::from_bits(u32::from_le_bytes(c.try_into().expect("4 bytes")));
                let v = |c: &[u8]| Vec3::new(f(&c[0..4]), f(&c[4..8]), f(&c[8..12]));
                Some(
                    bytes
                        .chunks_exact(36)
                        .map(|c| (v(&c[0..12]), v(&c[12..24]), v(&c[24..36])))
                        .collect::<Vec<_>>(),
                )
            }
            Some(_) => return Err(BagError::WrongKind("surfels".into())),
        };
        if cursor > 0 && surfels.is_none() {
            return Err(BagError::Mismatch(
                "snapshot past the primary pass carries no surfels".into(),
            ));
        }
        self.surfels = surfels;
        if let Some(r) = self.rounds() {
            if cursor > 1 + r {
                return Err(BagError::Mismatch(format!(
                    "cursor {cursor} past the {}-step plan",
                    1 + r
                )));
            }
        }
        self.cursor = cursor;
        self.parts = parts;
        Ok(())
    }

    fn finish(self: Box<Self>) -> RunResult {
        self.into_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuConfig;

    #[test]
    fn split_chunks_covers_the_range() {
        assert_eq!(split_chunks(10, 1), vec![(0, 10)]);
        assert_eq!(split_chunks(10, 3), vec![(0, 4), (4, 3), (7, 3)]);
        assert_eq!(split_chunks(2, 5), vec![(0, 1), (1, 1)]);
        assert_eq!(split_chunks(0, 3), vec![(0, 0)]);
    }

    #[test]
    fn chunked_btree_session_matches_oracle_and_snapshots() {
        let mut e = BTreeExperiment::new(BTreeFlavor::BTree, 2000, 192, Platform::BaselineGpu);
        e.gpu = GpuConfig::small_test();

        // Straight-line chunked run.
        let mut straight = e.session(3);
        while !straight.done() {
            straight.step();
        }
        let expected = straight.export_state();

        // Snapshot after chunk 1, restore onto a fresh session, continue.
        let mut first = e.session(3);
        first.step();
        let snap = first.export_state();
        let mut resumed = e.session(3);
        resumed.import_state(&snap).expect("snapshot fits");
        while !resumed.done() {
            resumed.step();
        }
        assert_eq!(resumed.export_state(), expected, "resumed ≡ straight-line");
        let r = Box::new(resumed).finish(); // verify=true checks the oracle
        assert!(r.stats.cycles > 0);
    }

    #[test]
    fn snapshot_rejects_wrong_session_key() {
        let mut e = BTreeExperiment::new(BTreeFlavor::BTree, 2000, 64, Platform::BaselineGpu);
        e.gpu = GpuConfig::small_test();
        let snap = e.session(2).export_state();
        let mut other = e.clone();
        other.sort_queries = true;
        let mut s = other.session(2);
        assert!(matches!(s.import_state(&snap), Err(BagError::Mismatch(_))));
    }

    #[test]
    fn run_equals_single_chunk_session() {
        let mut e = BTreeExperiment::new(BTreeFlavor::BPlus, 2000, 128, Platform::BaselineGpu);
        e.gpu = GpuConfig::small_test();
        let a = e.run();
        let mut s = e.session(1);
        while !s.done() {
            s.step();
        }
        let b = Box::new(s).finish();
        assert_eq!(a.label, b.label);
        assert_eq!(a.stats, b.stats);
        assert_eq!(format!("{:?}", a.accel), format!("{:?}", b.accel));
    }
}
