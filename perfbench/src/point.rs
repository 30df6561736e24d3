//! `point_lookup`: a closed loop of one client on a serial `Database`.
//! Each query aggregates an `IndexScan` range of width 1-16 on
//! `orders_pkey`, `customer_pkey` or `part_pkey`, drawn zipfian from a few
//! thousand distinct plans: far more than the 64-entry plan cache, with
//! enough skew that a real share hits. Every few thousand queries the
//! write path runs (`bump_stats_epoch` + `evict_stale`, an ANALYZE after a
//! load), invalidating every cached plan.
//!
//! Per-query fixed cost dominates; per-tuple simulation is tiny.

use crate::queries::{ClassOracle, LookupOracle, LookupSpace};
use crate::span::{Recorder, NO_REQUEST};
use crate::stats::{process_cpu_s, ratio};
use crate::{buffers_per_plan, open_database, snapshot, Config, Phase, Workload};
use bufferdb::prelude::*;
use bufferdb::types::rng::Rng;
use std::time::Instant;

/// Zipf exponent over plan ranks.
const THETA: f64 = 1.0;

pub struct Params {
    pub scale: f64,
    /// Distinct lookup plans.
    pub plans: usize,
    /// Queries between stats-epoch bumps.
    pub bump_every: u64,
    /// Untimed warm-up queries in set-up.
    pub warmup: usize,
    /// Modeled metrics cover exactly this many queries, so they repeat
    /// bit for bit whatever the host speed; the run lasts at least this long.
    pub modeled_sample: usize,
}

pub fn params(tiny: bool) -> Params {
    if tiny {
        Params {
            scale: 0.002,
            plans: 256,
            bump_every: 512,
            warmup: 100,
            modeled_sample: 2_000,
        }
    } else {
        Params {
            scale: 0.02,
            plans: 4096,
            bump_every: 4096,
            warmup: 1_000,
            modeled_sample: 20_000,
        }
    }
}

pub struct Point {
    db: Database,
    space: LookupSpace,
    /// The measured phase's query stream (separate from set-up's).
    stream: Rng,
}

/// Bump the catalog's stats epoch and sweep the stale plans.
pub fn bump_epoch(db: &Database, rec: &mut Recorder) {
    rec.time("prepare.bump_stats_epoch", NO_REQUEST, || {
        let epoch = db.catalog().bump_stats_epoch();
        db.plan_cache().evict_stale(epoch);
    });
}

impl Workload for Point {
    /// Generate the catalog, open a serial database, draw the lookup
    /// space, and run the warm-up queries (which fill the plan cache).
    fn setup(cfg: &Config, rec: &mut Recorder) -> Self {
        let p = params(cfg.tiny);
        let db = open_database(p.scale, cfg.seed, rec);
        let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x9017_1002);
        let space = LookupSpace::new(db.catalog(), p.plans, THETA, &mut rng);
        for _ in 0..p.warmup {
            let plan = space.get(space.sample(&mut rng)).plan();
            let out = rec
                .time("prepare.prepare", NO_REQUEST, || db.prepare(plan))
                .map(|q| rec.time("exec.execute", NO_REQUEST, || q.execute()));
            assert!(
                out.as_ref().is_ok_and(QueryOutcome::is_ok),
                "warm-up lookup failed"
            );
        }
        let stream = Rng::seed_from_u64(rng.next_u64());
        Point { db, space, stream }
    }

    /// Lookups until at least `cfg.seconds` have passed and the modeled
    /// sample is complete.
    fn measure(&mut self, cfg: &Config, rec: &mut Recorder, _: &mut ClassOracle) -> Phase {
        let p = params(cfg.tiny);
        let db = &self.db;
        let mut phase = Phase::default();
        let (c0, a0, r0) = snapshot(db);
        let mut results: Vec<(usize, Vec<Tuple>)> = Vec::new();
        let cpu0 = process_cpu_s();
        let started = Instant::now();
        let mut request = 0u64;
        while request < p.modeled_sample as u64 || started.elapsed().as_secs_f64() < cfg.seconds {
            if request > 0 && request.is_multiple_of(p.bump_every) {
                bump_epoch(db, rec);
            }
            request += 1;
            phase.attempted += 1;
            let rank = self.space.sample(&mut self.stream);
            let plan = self.space.get(rank).plan();
            let root = rec.enter("query", request);
            let t = Instant::now();
            let out = rec
                .time("prepare.prepare", request, || db.prepare(plan))
                .map(|q| rec.time("exec.execute", request, || q.execute()));
            let host_ms = t.elapsed().as_secs_f64() * 1e3;
            rec.exit(root);
            let out = match out {
                Ok(out) if out.is_ok() => out,
                _ => {
                    phase.errors += 1;
                    continue;
                }
            };
            phase.host_latency_ms.push(host_ms);
            if phase.modeled_latency_ms.len() < p.modeled_sample {
                phase.modeled_latency_ms.push(out.stats().seconds() * 1e3);
            }
            phase.absorb(out.stats(), "lookup");
            let (rows, ..) = out.into_parts();
            results.push((rank, rows));
        }
        phase.wall_s = started.elapsed().as_secs_f64();
        phase.cpu_s = process_cpu_s() - cpu0;
        // Throughput over the whole phase: on a host whose speed drifts
        // between modes within a run, a mean moves smoothly with the share
        // of time spent in each mode where a median of batches flips.
        phase.host_qps = ratio(phase.completed as f64, phase.wall_s);
        phase.client_latency_ms = phase.host_latency_ms.clone();
        // Modeled per-query cost over the fixed sample only.
        phase.modeled_ms.truncate(p.modeled_sample);
        let (c1, a1, r1) = snapshot(db);
        phase.cache = (c0, c1);
        phase.adapt = (a0, a1);
        phase.reuse = (r0, r1);
        phase.buffers_per_plan = buffers_per_plan(db);
        let mut oracle = LookupOracle::default();
        for (rank, rows) in results {
            if !oracle.matches(&self.space, rank, db.catalog(), &rows) {
                phase.mismatches += 1;
            }
        }
        phase
    }
}
