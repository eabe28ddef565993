//! The TTA+ backend: modular OP units behind a crossbar (§III-C, Fig. 10).
//!
//! An intersection test is a [`UopProgram`]; executing it means visiting the
//! OP units in μop order, paying a crossbar transfer between consecutive
//! μops plus each unit's Table-I latency, with structural hazards when
//! multiple in-flight rays contend for the same unit. This serialisation is
//! exactly the overhead the paper measures: the Ray-Box test's latency grows
//! ~10× (Fig. 18 bottom) yet end-to-end ray tracing only slows ~8%
//! (Fig. 16) because traversal remains memory-bound.

use std::collections::HashMap;

use gpu_sim::snapshot::{BagError, SnapValue, StateBag};
use rta::units::{
    import_units, IntersectionBackend, PipelinedUnit, TestKind, UnitStats, UnsupportedTest,
};

use crate::op_unit::OpUnit;
use crate::programs::UopProgram;

/// TTA+ configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TtaPlusConfig {
    /// OP unit instances per type ("we implement our TTA+ with one of each
    /// operation unit, which is the most general configuration", §V-C2).
    pub units_per_type: usize,
    /// Crossbar hop latency per μop-to-μop transfer, cycles.
    pub crossbar_hop_latency: u64,
    /// Concurrent transfers the 16×16 crossbar sustains per cycle
    /// (modelled as that many pipelined transfer lanes).
    pub crossbar_parallel_transfers: usize,
    /// Include a SQRT unit (+36.4% area, Table IV). Without it, programs
    /// containing SQRT μops are rejected — the "TTA+ without SQRT" design
    /// point.
    pub with_sqrt: bool,
    /// Latency of the intersection-shader fallback path (unchanged from
    /// the baseline RTA).
    pub shader_callback_latency: u64,
    /// Lane-instructions per shader callback.
    pub shader_instructions: u64,
    /// Initiation interval of the callback path.
    pub shader_interval: u64,
}

impl TtaPlusConfig {
    /// The paper's evaluated configuration: SQRT included, a 16×16
    /// crosspoint switch (16 concurrent transfers), hop latency tuned so a
    /// 19-μop Ray-Box lands near the ~10× latency of Fig. 18, and one OP
    /// unit of each type *per intersection-unit set* (Table II configures
    /// 4 sets; Table IV's area column prices a single set).
    pub fn default_paper() -> Self {
        TtaPlusConfig {
            units_per_type: 4,
            crossbar_hop_latency: 4,
            crossbar_parallel_transfers: 16,
            with_sqrt: true,
            shader_callback_latency: 400,
            shader_instructions: 40,
            shader_interval: 24,
        }
    }

    /// The §V-C2 minimal configuration: literally one unit of each type —
    /// the area-optimal design point, throughput-bound on MINMAX-heavy
    /// workloads (an ablation the paper leaves to future work).
    pub fn single_units() -> Self {
        TtaPlusConfig {
            units_per_type: 1,
            ..Self::default_paper()
        }
    }
}

impl Default for TtaPlusConfig {
    fn default() -> Self {
        Self::default_paper()
    }
}

/// Per-program latency statistics (Fig. 18 bottom).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Executions of this program.
    pub invocations: u64,
    /// Total latency (arrival to final μop retirement), cycles.
    pub total_latency: u64,
    /// Cycles spent in crossbar transfers.
    pub icnt_cycles: u64,
}

impl ProgramStats {
    /// Average end-to-end intersection latency.
    pub fn avg_latency(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.invocations as f64
        }
    }
}

/// The TTA+ backend.
#[derive(Debug)]
pub struct TtaPlusBackend {
    cfg: TtaPlusConfig,
    /// OP unit pools indexed by `OpUnit as usize` (declaration order, which
    /// is `OpUnit::ALL` order); an unconfigured unit has an empty pool.
    units: [Vec<PipelinedUnit>; OpUnit::ALL.len()],
    crossbar: Vec<PipelinedUnit>,
    programs: Vec<UopProgram>,
    program_stats: Vec<ProgramStats>,
    builtin: HashMap<&'static str, UopProgram>,
    builtin_stats: HashMap<&'static str, ProgramStats>,
    shader: PipelinedUnit,
    shader_calls: u64,
    trace: trace::TraceHandle,
    /// Monotone id for per-invocation trace spans.
    trace_invocations: u64,
}

impl TtaPlusBackend {
    /// Creates a backend with the given custom `programs` (addressed by
    /// [`TestKind::Program`] index). Standard test kinds (Ray-Box,
    /// Ray-Triangle, Query-Key, Point-to-Point, Transform) are mapped to
    /// the canned Table III programs automatically.
    ///
    /// # Panics
    ///
    /// Panics if `units_per_type` or the crossbar width is zero, or when a
    /// registered program needs SQRT while `with_sqrt` is false.
    pub fn new(cfg: TtaPlusConfig, programs: Vec<UopProgram>) -> Self {
        assert!(cfg.units_per_type > 0);
        assert!(cfg.crossbar_parallel_transfers > 0);
        for p in &programs {
            assert!(
                cfg.with_sqrt || !p.needs_sqrt(),
                "program `{}` needs the SQRT unit but this TTA+ has none",
                p.name()
            );
        }
        let units = OpUnit::ALL.map(|u| {
            if u == OpUnit::Sqrt && !cfg.with_sqrt {
                return Vec::new();
            }
            (0..cfg.units_per_type)
                .map(|_| PipelinedUnit::new(u.latency()))
                .collect()
        });
        let crossbar = (0..cfg.crossbar_parallel_transfers)
            .map(|_| PipelinedUnit::new(cfg.crossbar_hop_latency))
            .collect();
        let mut builtin = HashMap::new();
        builtin.insert("ray_box", UopProgram::ray_box());
        builtin.insert("ray_triangle", UopProgram::ray_triangle_leaf());
        builtin.insert("query_key_inner", UopProgram::query_key_inner());
        builtin.insert("point_to_point", UopProgram::point_to_point_inner());
        builtin.insert("transform", UopProgram::transform());
        let program_stats = vec![ProgramStats::default(); programs.len()];
        TtaPlusBackend {
            shader: PipelinedUnit::with_interval(cfg.shader_callback_latency, cfg.shader_interval),
            shader_calls: 0,
            cfg,
            units,
            crossbar,
            programs,
            program_stats,
            builtin,
            builtin_stats: HashMap::new(),
            trace: trace::TraceHandle::default(),
            trace_invocations: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TtaPlusConfig {
        &self.cfg
    }

    /// Statistics for custom program `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range; see [`TtaPlusBackend::try_program_stats`].
    pub fn program_stats(&self, id: u16) -> &ProgramStats {
        &self.program_stats[id as usize]
    }

    /// Statistics for custom program `id`, or `None` past the end.
    pub fn try_program_stats(&self, id: u16) -> Option<&ProgramStats> {
        self.program_stats.get(id as usize)
    }

    /// Statistics for the built-in program handling `kind`, if any ran.
    pub fn builtin_stats(&self, name: &str) -> Option<&ProgramStats> {
        self.builtin_stats.get(name)
    }

    /// Lane-instructions executed by shader callbacks.
    pub fn shader_lane_instructions(&self) -> u64 {
        self.shader_calls * self.cfg.shader_instructions
    }

    fn run_program_indexed(&mut self, which: ProgramRef, now: u64) -> u64 {
        let program = match which {
            ProgramRef::Custom(i) => &self.programs[i],
            ProgramRef::Builtin(name) => &self.builtin[name],
        };
        let mut t = now;
        let mut icnt = 0u64;
        for uop in program.uops() {
            // Crossbar transfer to the unit's input port.
            let xb = self
                .crossbar
                .iter_mut()
                .min_by_key(|u| u.next_free(t))
                .expect("crossbar lanes");
            let after_hop = xb.schedule(t);
            icnt += after_hop - t;
            // Execute on the (possibly contended) OP unit.
            let unit = self.units[uop.unit as usize]
                .iter_mut()
                .min_by_key(|u| u.next_free(after_hop))
                .unwrap_or_else(|| panic!("no {} unit configured", uop.unit));
            t = unit.schedule(after_hop);
        }
        let stats = match which {
            ProgramRef::Custom(i) => &mut self.program_stats[i],
            ProgramRef::Builtin(name) => self.builtin_stats.entry(name).or_default(),
        };
        stats.invocations += 1;
        stats.total_latency += t - now;
        stats.icnt_cycles += icnt;
        if self.trace.enabled() {
            let (track, name) = match which {
                ProgramRef::Custom(i) => (trace::Track::Program(i as u32), "uop_program"),
                ProgramRef::Builtin(name) => {
                    let slot = BUILTIN_TRACE_ORDER
                        .iter()
                        .position(|&n| n == name)
                        .expect("builtin registered in BUILTIN_TRACE_ORDER")
                        as u32;
                    (
                        trace::Track::Program(trace::Track::BUILTIN_PROGRAM_BASE + slot),
                        name,
                    )
                }
            };
            let id = self.trace_invocations;
            self.trace_invocations += 1;
            self.trace.async_span(track, name, id, now, t, icnt);
        }
        t
    }
}

/// Stable trace-track ordering of the built-in Table III programs.
const BUILTIN_TRACE_ORDER: [&str; 5] = [
    "ray_box",
    "ray_triangle",
    "query_key_inner",
    "point_to_point",
    "transform",
];

#[derive(Debug, Clone, Copy)]
enum ProgramRef {
    Custom(usize),
    Builtin(&'static str),
}

impl IntersectionBackend for TtaPlusBackend {
    fn schedule(&mut self, kind: TestKind, now: u64) -> Result<u64, UnsupportedTest> {
        let which = match kind {
            TestKind::RayBox => ProgramRef::Builtin("ray_box"),
            TestKind::RayTriangle => ProgramRef::Builtin("ray_triangle"),
            TestKind::QueryKey => ProgramRef::Builtin("query_key_inner"),
            TestKind::PointToPoint => ProgramRef::Builtin("point_to_point"),
            TestKind::Transform => ProgramRef::Builtin("transform"),
            TestKind::IntersectionShader => {
                self.shader_calls += 1;
                return Ok(self.shader.schedule(now));
            }
            TestKind::Program(i) => {
                if (i as usize) >= self.programs.len() {
                    return Err(UnsupportedTest(kind));
                }
                ProgramRef::Custom(i as usize)
            }
        };
        Ok(self.run_program_indexed(which, now))
    }

    fn set_trace(&mut self, trace: trace::TraceHandle) {
        self.trace = trace;
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn unit_stats(&self) -> Vec<(String, UnitStats)> {
        let mut out: Vec<(String, UnitStats)> = Vec::new();
        for (u, pool) in OpUnit::ALL.into_iter().zip(&self.units) {
            if pool.is_empty() {
                continue;
            }
            let mut s = UnitStats::default();
            for unit in pool {
                s.invocations += unit.stats.invocations;
                s.busy_cycles += unit.stats.busy_cycles;
                s.peak_in_flight = s.peak_in_flight.max(unit.stats.peak_in_flight);
                s.total_latency += unit.stats.total_latency;
            }
            out.push((u.name().to_owned(), s));
        }
        let mut xb = UnitStats::default();
        for lane in &self.crossbar {
            xb.invocations += lane.stats.invocations;
            xb.busy_cycles += lane.stats.busy_cycles;
            xb.peak_in_flight = xb.peak_in_flight.max(lane.stats.peak_in_flight);
            xb.total_latency += lane.stats.total_latency;
        }
        out.push(("ICNT".to_owned(), xb));
        out.push(("IntersectionShader".to_owned(), self.shader.stats.clone()));
        out
    }

    fn export_state(&self) -> StateBag {
        let program_bag = |s: &ProgramStats| {
            SnapValue::List(
                [s.invocations, s.total_latency, s.icnt_cycles]
                    .into_iter()
                    .map(SnapValue::U64)
                    .collect(),
            )
        };
        let mut bag = StateBag::new();
        // Configured OP unit pools keyed by unit name, in `OpUnit::ALL` order.
        let mut units = StateBag::new();
        for (u, pool) in OpUnit::ALL.into_iter().zip(&self.units) {
            if !pool.is_empty() {
                units.put(u.name(), rta::units::export_units(pool));
            }
        }
        bag.put_bag("units", units);
        bag.put("crossbar", rta::units::export_units(&self.crossbar));
        bag.put_list(
            "program_stats",
            self.program_stats.iter().map(program_bag).collect(),
        );
        // Parallel to BUILTIN_TRACE_ORDER; programs that never ran export
        // all-zero rows (a live entry always has `invocations >= 1`).
        bag.put_list(
            "builtin_stats",
            BUILTIN_TRACE_ORDER
                .iter()
                .map(|name| {
                    self.builtin_stats
                        .get(name)
                        .map_or(SnapValue::List(vec![SnapValue::U64(0); 3]), &program_bag)
                })
                .collect(),
        );
        bag.put_bag("shader", self.shader.export_state());
        bag.put_u64("shader_calls", self.shader_calls);
        bag.put_u64("trace_invocations", self.trace_invocations);
        bag
    }

    fn import_state(&mut self, bag: &StateBag) -> Result<(), BagError> {
        let unpack = |v: &SnapValue, what: &str| -> Result<ProgramStats, BagError> {
            let SnapValue::List(items) = v else {
                return Err(BagError::WrongKind(what.to_owned()));
            };
            let row: Vec<u64> = items
                .iter()
                .map(|x| match x {
                    SnapValue::U64(n) => Ok(*n),
                    _ => Err(BagError::WrongKind(what.to_owned())),
                })
                .collect::<Result<_, _>>()?;
            let row: [u64; 3] = row
                .try_into()
                .map_err(|_| BagError::Mismatch(format!("{what} arity")))?;
            Ok(ProgramStats {
                invocations: row[0],
                total_latency: row[1],
                icnt_cycles: row[2],
            })
        };
        let units_bag = bag.bag("units")?;
        for (u, pool) in OpUnit::ALL.into_iter().zip(&mut self.units) {
            if !pool.is_empty() {
                import_units(pool, units_bag, u.name())?;
            }
        }
        import_units(&mut self.crossbar, bag, "crossbar")?;
        let ps = bag.list("program_stats")?;
        if ps.len() != self.program_stats.len() {
            return Err(BagError::Mismatch(format!(
                "snapshot has {} custom programs, host has {}",
                ps.len(),
                self.program_stats.len()
            )));
        }
        self.program_stats = ps
            .iter()
            .map(|v| unpack(v, "program_stats"))
            .collect::<Result<_, _>>()?;
        let bs = bag.list("builtin_stats")?;
        if bs.len() != BUILTIN_TRACE_ORDER.len() {
            return Err(BagError::Mismatch("builtin_stats arity".to_owned()));
        }
        self.builtin_stats.clear();
        for (name, v) in BUILTIN_TRACE_ORDER.iter().zip(bs) {
            let s = unpack(v, "builtin_stats")?;
            // All-zero means "never ran": keep the entry absent so
            // `builtin_stats()` still answers `None` after a restore.
            if s != ProgramStats::default() {
                self.builtin_stats.insert(name, s);
            }
        }
        self.shader.import_state(bag.bag("shader")?)?;
        self.shader_calls = bag.u64("shader_calls")?;
        self.trace_invocations = bag.u64("trace_invocations")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ray_box_latency_blows_up_about_10x() {
        let mut b = TtaPlusBackend::new(TtaPlusConfig::default_paper(), vec![]);
        let done = b.schedule(TestKind::RayBox, 0).unwrap();
        // Baseline Ray-Box is 13 cycles; TTA+ should land near 10x that
        // (Fig. 18 bottom reports ~10x for ray-tracing applications).
        assert!(
            (100..200).contains(&done),
            "TTA+ Ray-Box latency {done} not ~10x of 13"
        );
    }

    #[test]
    fn query_key_is_cheaper_than_ray_box() {
        let mut b = TtaPlusBackend::new(TtaPlusConfig::default_paper(), vec![]);
        let qk = b.schedule(TestKind::QueryKey, 0).unwrap();
        let rb = b.schedule(TestKind::RayBox, 1000).unwrap() - 1000;
        assert!(
            qk < rb,
            "12-μop Query-Key ({qk}) must beat 19-μop Ray-Box ({rb})"
        );
    }

    #[test]
    fn custom_programs_run_and_record_stats() {
        let p = UopProgram::ray_sphere_leaf();
        let mut b = TtaPlusBackend::new(TtaPlusConfig::default_paper(), vec![p]);
        let done = b.schedule(TestKind::Program(0), 0).unwrap();
        assert!(done > 0);
        let s = b.program_stats(0);
        assert_eq!(s.invocations, 1);
        assert!(s.icnt_cycles > 0, "crossbar time must be accounted");
        assert!(b.schedule(TestKind::Program(7), 0).is_err());
    }

    #[test]
    #[should_panic(expected = "SQRT")]
    fn sqrt_program_without_sqrt_unit_panics() {
        let cfg = TtaPlusConfig {
            with_sqrt: false,
            ..TtaPlusConfig::default_paper()
        };
        let _ = TtaPlusBackend::new(cfg, vec![UopProgram::ray_sphere_leaf()]);
    }

    #[test]
    fn structural_hazards_serialize_concurrent_tests() {
        let mut b = TtaPlusBackend::new(TtaPlusConfig::single_units(), vec![]);
        let first = b.schedule(TestKind::RayBox, 0).unwrap();
        let second = b.schedule(TestKind::RayBox, 0).unwrap();
        assert!(
            second > first,
            "single units must serialise ({first} vs {second})"
        );
    }

    #[test]
    fn shader_fallback_still_available() {
        let mut b = TtaPlusBackend::new(TtaPlusConfig::default_paper(), vec![]);
        let done = b.schedule(TestKind::IntersectionShader, 0).unwrap();
        assert_eq!(done, 400);
        assert_eq!(b.shader_lane_instructions(), 40);
        // Throughput is bounded by the shader initiation interval.
        let second = b.schedule(TestKind::IntersectionShader, 0).unwrap();
        assert_eq!(second, 424);
    }

    #[test]
    fn snapshot_roundtrip_replays_contention() {
        let p = UopProgram::ray_sphere_leaf();
        let mut b = TtaPlusBackend::new(TtaPlusConfig::default_paper(), vec![p.clone()]);
        b.schedule(TestKind::RayBox, 0).unwrap();
        b.schedule(TestKind::Program(0), 3).unwrap();
        let snap = b.export_state();

        let mut fresh = TtaPlusBackend::new(TtaPlusConfig::default_paper(), vec![p]);
        fresh.import_state(&snap).expect("snapshot fits");
        assert_eq!(fresh.export_state(), snap, "export/import is lossless");
        assert_eq!(fresh.program_stats(0), b.program_stats(0));
        assert_eq!(fresh.builtin_stats("ray_box"), b.builtin_stats("ray_box"));
        assert_eq!(
            fresh.builtin_stats("transform"),
            None,
            "never-ran builtins stay absent after restore"
        );
        // Structural hazards replay identically from the restored stamps.
        assert_eq!(
            fresh.schedule(TestKind::RayBox, 10),
            b.schedule(TestKind::RayBox, 10)
        );
    }

    #[test]
    fn snapshot_rejects_program_count_mismatch() {
        let mut b = TtaPlusBackend::new(TtaPlusConfig::default_paper(), vec![]);
        b.schedule(TestKind::RayBox, 0).unwrap();
        let snap = b.export_state();
        let mut other = TtaPlusBackend::new(
            TtaPlusConfig::default_paper(),
            vec![UopProgram::ray_sphere_leaf()],
        );
        assert!(matches!(
            other.import_state(&snap),
            Err(BagError::Mismatch(_))
        ));
    }

    #[test]
    fn unit_stats_cover_all_units_and_icnt() {
        let mut b = TtaPlusBackend::new(TtaPlusConfig::default_paper(), vec![]);
        b.schedule(TestKind::RayBox, 0).unwrap();
        let stats = b.unit_stats();
        let names: Vec<&str> = stats.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"MINMAX"));
        assert!(names.contains(&"ICNT"));
        let icnt = &stats.iter().find(|(n, _)| n == "ICNT").unwrap().1;
        assert_eq!(icnt.invocations, 19, "one hop per μop");
    }
}
