//! One test over every declared counter and summary struct (see
//! `trace::fields`), fed seeded random values plus hand-picked cases:
//!
//! * the snapshot bag round-trips exactly, lists the declared fields in
//!   order, and a bag missing any one entry names that entry;
//! * the JSON object parses with `trace::json::parse` and every field
//!   reads back;
//! * `add` and `sub` fold every field as declared (sum, max or keep,
//!   named rows joined by name), checked against a reference fold over
//!   the JSON form;
//! * `sum_stats` is the `SimStats` fold plus the completion rebasing.

use std::convert::Infallible;

use gpu_sim::mem::{CacheStats, DramStats};
use gpu_sim::snapshot::{BagError, StateBag};
use gpu_sim::{InstrMix, SimStats};
use rta::engine::EngineStats;
use rta::units::UnitStats;
use trace::fields::{Declared, Field, Fold, Mode, Reader};
use trace::json::{self, Value as Json};
use trace::CycleAttribution;
use tta::ttaplus::ProgramStats;
use tta_serve::DeviceCounters;
use workloads::runner::sum_stats;
use workloads::{AccelReport, FleetClassSummary, FleetDeviceSummary, FleetSummary, ServeSummary};

/// Makes up every field of a declared struct from a seeded generator.
/// Values stay small enough that JSON numbers and sums are exact.
struct Random(u64);

impl Random {
    fn next(&mut self) -> u64 {
        // SplitMix64.
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl Reader for Random {
    type Error = Infallible;

    fn u64(&mut self, _: &str) -> Result<u64, Infallible> {
        Ok(self.next() % (1 << 32))
    }

    fn f64(&mut self, _: &str) -> Result<f64, Infallible> {
        Ok((self.next() % (1 << 20)) as f64 / 8.0)
    }

    fn str(&mut self, _: &str) -> Result<String, Infallible> {
        // Few distinct names, so named rows collide and join.
        Ok(["a", "b", "c"][(self.next() % 3) as usize].to_owned())
    }

    fn u64s(&mut self, _: &str) -> Result<Vec<u64>, Infallible> {
        let n = self.next() % 4;
        Ok((0..n).map(|_| self.next() % 1000).collect())
    }

    fn record<T: Declared>(&mut self, _: &str, into: &mut T) -> Result<(), Infallible> {
        into.read_fields(self)
    }

    fn records<T: Declared + Default>(&mut self, _: &str) -> Result<Vec<T>, Infallible> {
        let n = self.next() % 4;
        (0..n)
            .map(|_| {
                let mut row = T::default();
                row.read_fields(self)?;
                Ok(row)
            })
            .collect()
    }
}

fn random<T: Declared + Default>(seed: u64) -> T {
    let mut v = T::default();
    v.read_fields(&mut Random(seed))
        .unwrap_or_else(|e| match e {});
    v
}

/// Reads a declared struct back out of its parsed JSON object.
struct FromJson<'a>(&'a Json);

impl FromJson<'_> {
    fn get(&self, name: &str) -> Result<&Json, String> {
        self.0.get(name).ok_or_else(|| format!("missing `{name}`"))
    }

    fn num(&self, name: &str) -> Result<f64, String> {
        self.get(name)?
            .as_num()
            .ok_or_else(|| format!("`{name}` is not a number"))
    }

    fn array(&self, name: &str) -> Result<&[Json], String> {
        self.get(name)?
            .as_array()
            .ok_or_else(|| format!("`{name}` is not an array"))
    }
}

impl Reader for FromJson<'_> {
    type Error = String;

    fn u64(&mut self, name: &str) -> Result<u64, String> {
        Ok(self.num(name)? as u64)
    }

    fn f64(&mut self, name: &str) -> Result<f64, String> {
        self.num(name)
    }

    fn str(&mut self, name: &str) -> Result<String, String> {
        self.get(name)?
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| format!("`{name}` is not a string"))
    }

    fn u64s(&mut self, name: &str) -> Result<Vec<u64>, String> {
        self.array(name)?
            .iter()
            .map(|v| v.as_num().map(|n| n as u64).ok_or(format!("`{name}` row")))
            .collect()
    }

    fn record<T: Declared>(&mut self, name: &str, into: &mut T) -> Result<(), String> {
        into.read_fields(&mut FromJson(self.get(name)?))
    }

    fn records<T: Declared + Default>(&mut self, name: &str) -> Result<Vec<T>, String> {
        self.array(name)?
            .iter()
            .map(|row| {
                let mut v = T::default();
                v.read_fields(&mut FromJson(row))?;
                Ok(v)
            })
            .collect()
    }
}

fn to_bag<T: Declared>(v: &T) -> StateBag {
    let mut bag = StateBag::new();
    v.visit(&mut bag);
    bag
}

fn from_bag<T: Declared + Default>(bag: &StateBag) -> Result<T, BagError> {
    let mut v = T::default();
    v.read_fields(&mut &*bag)?;
    Ok(v)
}

fn parsed<T: Declared>(v: &T) -> Json {
    let text = json::object(v);
    json::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"))
}

/// The reference fold: what `add` (or `sub`) must produce, computed on
/// the JSON form from the declared modes alone.
fn fold_object(a: &Json, b: &Json, fields: &[Field], sub: bool) -> Json {
    let pairs = a.as_object().expect("declared structs are objects");
    Json::Obj(
        pairs
            .iter()
            .map(|(k, va)| {
                let vb = b.get(k).expect("both sides carry every key");
                let field = fields.iter().find(|f| f.name == k);
                let nested = field.map_or(&[][..], |f| f.nested);
                let v = match (field.map_or(Mode::Sum, |f| f.mode), va, vb) {
                    (Mode::Keep, ..) => va.clone(),
                    (Mode::Max, _, _) if sub => va.clone(),
                    (Mode::Max, Json::Num(x), Json::Num(y)) => Json::Num(x.max(*y)),
                    (Mode::Sum, ..) => fold_value(va, vb, nested, sub),
                    other => panic!("`{k}`: no fold for {other:?}"),
                };
                (k.clone(), v)
            })
            .collect(),
    )
}

fn fold_value(a: &Json, b: &Json, nested: &[Field], sub: bool) -> Json {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => Json::Num(if sub { x - y } else { x + y }),
        // The join key of a named row: equal by construction.
        (Json::Str(x), Json::Str(y)) => {
            assert_eq!(x, y);
            a.clone()
        }
        (Json::Obj(_), Json::Obj(_)) => fold_object(a, b, nested, sub),
        (Json::Arr(rows), Json::Arr(other)) => {
            let mut out = rows.clone();
            for row in other {
                let name = row.get("name").expect("summed lists hold named rows");
                match out.iter_mut().find(|r| r.get("name") == Some(name)) {
                    Some(r) => *r = fold_object(r, row, nested, sub),
                    None => {
                        assert!(!sub, "subtracting an absent row");
                        out.push(row.clone());
                    }
                }
            }
            Json::Arr(out)
        }
        other => panic!("no fold for {other:?}"),
    }
}

/// Every property, for one declared type over the given `(a, b)` pairs.
fn check<T: Declared + Fold + Default + Clone + PartialEq + std::fmt::Debug>(pairs: &[(T, T)]) {
    let ty = std::any::type_name::<T>();
    for (a, b) in pairs {
        for x in [a, b] {
            let bag = to_bag(x);
            assert_eq!(from_bag::<T>(&bag).as_ref(), Ok(x), "{ty}: bag round trip");
            if !T::FIELDS.is_empty() {
                let names: Vec<&str> = bag.entries().iter().map(|(n, _)| n.as_str()).collect();
                let declared: Vec<&str> = T::FIELDS.iter().map(|f| f.name).collect();
                assert_eq!(names, declared, "{ty}: bag entries in declaration order");
            }
            for (skip, _) in bag.entries() {
                let mut partial = StateBag::new();
                for (name, v) in bag.entries() {
                    if name != skip {
                        partial.put(name, v.clone());
                    }
                }
                assert_eq!(
                    from_bag::<T>(&partial),
                    Err(BagError::Missing(skip.clone())),
                    "{ty}: a bag without `{skip}`"
                );
            }
            let mut back = T::default();
            back.read_fields(&mut FromJson(&parsed(x)))
                .unwrap_or_else(|e| panic!("{ty}: {e} in {}", json::object(x)));
            assert_eq!(&back, x, "{ty}: JSON round trip");
        }
        let mut sum = a.clone();
        sum.add(b);
        assert_eq!(
            parsed(&sum),
            fold_object(&parsed(a), &parsed(b), T::FIELDS, false),
            "{ty}: add"
        );
        let mut diff = sum.clone();
        diff.sub(b);
        assert_eq!(
            parsed(&diff),
            fold_object(&parsed(&sum), &parsed(b), T::FIELDS, true),
            "{ty}: sub"
        );
    }
}

fn random_pairs<T: Declared + Default>(salt: u64) -> Vec<(T, T)> {
    (0..12)
        .map(|i| (random(salt * 1000 + 2 * i), random(salt * 1000 + 2 * i + 1)))
        .collect()
}

/// `SimStats` cases that predate the generic test: the exact snapshot
/// round trip and the two-launch sum.
fn sim_stats_cases() -> Vec<(SimStats, SimStats)> {
    let mut s = SimStats {
        warp_size: 16,
        cycles: 1234,
        warp_instrs: 99,
        lane_instrs: 1200,
        flops: 7,
        dram_channels: 6,
        traversals_offloaded: 3,
        sm_active_cycles: 1100,
        warp_completions: vec![10, 20, 1234],
        ..Default::default()
    };
    s.mix.alu = 800;
    s.mix.memory = 300;
    s.l1.hits = 50;
    s.l2.misses = 8;
    s.dram.bytes_read = 4096;
    s.dram.busy_channel_cycles = 123.456;
    s.attribution.simt_busy = 600;
    s.attribution.accel_busy = 400;
    let mut a = SimStats {
        cycles: 10,
        warp_instrs: 5,
        lane_instrs: 100,
        ..Default::default()
    };
    a.mix.alu = 70;
    a.dram.bytes_read = 1000;
    let mut b = SimStats {
        cycles: 20,
        warp_instrs: 7,
        lane_instrs: 150,
        ..Default::default()
    };
    b.mix.alu = 90;
    b.dram.bytes_read = 500;
    vec![(s.clone(), s), (a, b)]
}

/// The cross-device merge case: every counter at `n`, one shared unit and
/// program row, plus a unit only the right side has.
fn accel_cases() -> Vec<(AccelReport, AccelReport)> {
    let unit = |n| UnitStats {
        invocations: n,
        busy_cycles: n,
        peak_in_flight: n as usize,
        total_latency: n,
    };
    let program = |n| ProgramStats {
        invocations: n,
        total_latency: n,
        icnt_cycles: n,
    };
    let report = |n: u64| AccelReport {
        engine: EngineStats {
            warps_accepted: n,
            rays_completed: n,
            node_fetches: n,
            fetch_merges: n,
            nodes_processed: n,
            warp_buffer_accesses: n,
            prefetches: n,
            busy_cycles: n,
        },
        units: vec![("u".into(), unit(n))],
        programs: vec![("p".into(), program(n))],
        shader_lane_instructions: n,
        traversals: n,
    };
    let mut b = report(3);
    b.units.push(("v".into(), unit(1)));
    vec![(report(2), b)]
}

#[test]
fn every_declared_struct_round_trips_and_folds_as_declared() {
    check::<InstrMix>(&random_pairs(1));
    check::<CacheStats>(&random_pairs(2));
    check::<DramStats>(&random_pairs(3));
    check::<CycleAttribution>(&random_pairs(4));
    check::<SimStats>(&[random_pairs(5), sim_stats_cases()].concat());
    check::<EngineStats>(&random_pairs(6));
    check::<UnitStats>(&random_pairs(7));
    check::<ProgramStats>(&random_pairs(8));
    check::<AccelReport>(&[random_pairs(9), accel_cases()].concat());
    check::<DeviceCounters>(&random_pairs(15));
    check::<ServeSummary>(&random_pairs(10));
    check::<FleetDeviceSummary>(&random_pairs(11));
    check::<FleetClassSummary>(&random_pairs(12));
    check::<FleetSummary>(&random_pairs(13));
}

#[test]
fn sum_stats_is_the_fold_plus_completion_rebasing() {
    for (a, b) in [random_pairs::<SimStats>(14), sim_stats_cases()].concat() {
        let mut want = a.clone();
        want.add(&b);
        want.warp_completions
            .extend(b.warp_completions.iter().map(|c| c + a.cycles));
        assert_eq!(sum_stats(&[a.clone(), b]), want);
        assert_eq!(sum_stats(std::slice::from_ref(&a)), a);
    }
    assert_eq!(sum_stats(&[]), SimStats::default());
}

/// The declared markers, pinned on the hand-picked cases: a marker edited
/// in a declaration fails here, though the generic check follows it.
#[test]
fn hand_picked_cases_fold_to_known_values() {
    let (a, b) = sim_stats_cases().pop().expect("two-launch case");
    let s = sum_stats(&[a, b]);
    assert_eq!((s.cycles, s.warp_instrs, s.lane_instrs), (30, 12, 250));
    assert_eq!((s.mix.alu, s.dram.bytes_read, s.warp_size), (160, 1500, 32));

    let (mut a, b) = accel_cases().pop().expect("merge case");
    a.add(&b);
    let five = EngineStats {
        warps_accepted: 5,
        rays_completed: 5,
        node_fetches: 5,
        fetch_merges: 5,
        nodes_processed: 5,
        warp_buffer_accesses: 5,
        prefetches: 5,
        busy_cycles: 5,
    };
    assert_eq!(a.engine, five);
    assert_eq!((a.shader_lane_instructions, a.traversals), (5, 5));
    let unit = |n, peak_in_flight| UnitStats {
        invocations: n,
        busy_cycles: n,
        peak_in_flight,
        total_latency: n,
    };
    assert_eq!(
        a.units,
        vec![("u".into(), unit(5, 3)), ("v".into(), unit(1, 1))]
    );
    assert_eq!(a.programs[0].1.invocations, 5);
}
