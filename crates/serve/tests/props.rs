//! Property tests for the serving engine: across randomized policies,
//! arrival patterns, and batch-cost models, the default (unbounded)
//! backpressure configuration never drops an admitted query — the
//! drained-flush rule guarantees every query eventually rides a batch.

use gpu_sim::SimStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tta_serve::{serve, BatchPolicy, BatchService, ServeConfig};

/// A deterministic stand-in backend: each batch costs
/// `base + per_query × n` cycles, with warp completions spread across the
/// batch (warp w completes once its queries are done).
struct CostModelService {
    universe: usize,
    warp_width: usize,
    base: u64,
    per_query: u64,
}

impl BatchService for CostModelService {
    fn label(&self) -> String {
        "COST".into()
    }
    fn query_count(&self) -> usize {
        self.universe
    }
    fn warp_width(&self) -> usize {
        self.warp_width
    }
    fn run_batch(&mut self, ids: &[usize]) -> SimStats {
        let warps = ids.len().div_ceil(self.warp_width);
        SimStats {
            cycles: self.base + self.per_query * ids.len() as u64,
            warp_size: self.warp_width as u32,
            warp_completions: (1..=warps)
                .map(|w| self.base + self.per_query * ((w * self.warp_width).min(ids.len()) as u64))
                .collect(),
            ..Default::default()
        }
    }
}

fn random_policy(rng: &mut StdRng) -> BatchPolicy {
    match rng.random_range(0..3u32) {
        0 => BatchPolicy::SizeTriggered {
            batch: rng.random_range(1..80usize),
        },
        1 => BatchPolicy::DeadlineTriggered {
            max_wait: rng.random_range(1..5000u64),
            max_batch: rng.random_range(1..80usize),
        },
        _ => BatchPolicy::Continuous {
            max_warps: rng.random_range(1..12usize),
        },
    }
}

fn random_arrivals(rng: &mut StdRng) -> Vec<u64> {
    let n = rng.random_range(0..400usize);
    let mut t = 0u64;
    (0..n)
        .map(|_| {
            // Mix bursts (zero gaps) with lulls.
            if rng.random_bool(0.3) {
                t += rng.random_range(0..3000u64);
            }
            t
        })
        .collect()
}

#[test]
fn unbounded_queue_never_drops_an_admitted_query() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0xd20b ^ seed);
        let policy = random_policy(&mut rng);
        let arrivals = random_arrivals(&mut rng);
        let mut svc = CostModelService {
            universe: 64,
            warp_width: [1, 4, 32][rng.random_range(0..3usize)],
            base: rng.random_range(1..500u64),
            per_query: rng.random_range(0..50u64),
        };
        let cfg = ServeConfig {
            policy: policy.clone(),
            queue_capacity: None, // the default backpressure configuration
            trace: trace::TraceHandle::default(),
        };
        let out = serve(&mut svc, &cfg, &arrivals);
        assert_eq!(
            out.counters.dropped, 0,
            "seed {seed}: {policy:?} dropped queries"
        );
        for (i, q) in out.queries.iter().enumerate() {
            let done = q.completion.unwrap_or_else(|| {
                panic!(
                    "seed {seed}: {policy:?} starved query {i} of {}",
                    arrivals.len()
                )
            });
            assert!(
                done >= q.arrival,
                "seed {seed}: query {i} completed before it arrived"
            );
        }
        if !arrivals.is_empty() {
            assert!(out.counters.batches > 0);
            assert!(out.makespan >= *arrivals.last().unwrap());
        }
    }
}

#[test]
fn bounded_queue_accounts_for_every_offered_query() {
    for seed in 0..100u64 {
        let mut rng = StdRng::seed_from_u64(0xb0c4 ^ seed);
        let policy = random_policy(&mut rng);
        let arrivals = random_arrivals(&mut rng);
        let cap = rng.random_range(1..16usize);
        let mut svc = CostModelService {
            universe: 64,
            warp_width: 4,
            base: rng.random_range(1..500u64),
            per_query: rng.random_range(0..50u64),
        };
        let cfg = ServeConfig {
            policy,
            queue_capacity: Some(cap),
            trace: trace::TraceHandle::default(),
        };
        let out = serve(&mut svc, &cfg, &arrivals);
        let completed = out
            .queries
            .iter()
            .filter(|q| q.completion.is_some())
            .count() as u64;
        // offered = completed + dropped: nothing admitted is ever lost,
        // and the queue bound is respected.
        assert_eq!(
            completed + out.counters.dropped,
            arrivals.len() as u64,
            "seed {seed}"
        );
        assert!(out.counters.max_queue_depth <= cap, "seed {seed}");
    }
}
