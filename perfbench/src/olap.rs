//! `olap_scan`: a closed loop of one client running a fixed, seeded
//! rotation of analytic queries on a 2-worker `Database` (default
//! BufferedPull policy) with a warm plan cache.
//!
//! Nearly all host time is the per-tuple executor and cache simulator:
//! lineitem far exceeds the modeled L2 and the join footprints exceed the
//! L1i, the paper's thrashing regime, while prepare work is nil.

use crate::queries::{seeded_q1_cutoff, Class, ClassOracle};
use crate::span::{Recorder, NO_REQUEST};
use crate::stats::{median, process_cpu_s, ratio, row_digest};
use crate::{buffers_per_plan, open_database, snapshot, Config, Phase, Workload};
use bufferdb::prelude::*;
use bufferdb::types::rng::Rng;
use std::time::Instant;

/// Every class in the rotation, before the seeded shuffle.
const ROTATION: [Class; 9] = [
    Class::PaperQ1,
    Class::PaperQ2,
    Class::Q1,
    Class::Q6,
    Class::Q12,
    Class::Q14,
    Class::Q3Hash,
    Class::Q3Merge,
    Class::Q3NestLoop,
];

pub const WORKERS: usize = 2;

pub fn scale(tiny: bool) -> f64 {
    if tiny {
        0.001
    } else {
        0.005
    }
}

/// Rotations per measured phase: one per 3 requested seconds (a rotation
/// takes 2-3 host seconds), odd so each class's median is a middle
/// sample, and at least 3. The count is fixed by `seconds` alone,
/// never by host speed, so every run gives every class the same number of
/// samples.
pub fn rotations(seconds: f64) -> usize {
    let r = ((seconds / 3.0).round() as usize).max(3);
    r | 1
}

pub struct Olap {
    db: Database,
    q1_cutoff: String,
    rotation: Vec<(Class, PlanNode)>,
}

impl Workload for Olap {
    /// Generate the catalog, open a 2-worker database, and prepare every
    /// plan of the rotation once so the plan cache is warm.
    fn setup(cfg: &Config, rec: &mut Recorder) -> Self {
        let mut db = open_database(scale(cfg.tiny), cfg.seed, rec);
        db.set_threads(WORKERS);
        let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x01a9_5ca2);
        let q1_cutoff = seeded_q1_cutoff(&mut rng);
        let mut classes = ROTATION.to_vec();
        for i in (1..classes.len()).rev() {
            classes.swap(i, rng.gen_range(0..=i));
        }
        let rotation: Vec<(Class, PlanNode)> = classes
            .into_iter()
            .map(|c| (c, c.plan(db.catalog(), &q1_cutoff)))
            .collect();
        for (class, plan) in &rotation {
            let prepared = rec.time("prepare.prepare", NO_REQUEST, || db.prepare(plan));
            if let Err(e) = prepared {
                panic!("warm-up prepare of {} failed: {e}", class.label());
            }
        }
        Olap {
            db,
            q1_cutoff,
            rotation,
        }
    }

    /// A fixed number of whole rotations, [`rotations`]`(cfg.seconds)`.
    fn measure(&mut self, cfg: &Config, rec: &mut Recorder, oracle: &mut ClassOracle) -> Phase {
        let db = &self.db;
        let mut phase = Phase::default();
        let (c0, a0, r0) = snapshot(db);
        let mut results: Vec<(Class, u64)> = Vec::new();
        let mut class_ms: Vec<Vec<f64>> = vec![Vec::new(); self.rotation.len()];
        let cpu0 = process_cpu_s();
        let started = Instant::now();
        let mut request = 0u64;
        for _ in 0..rotations(cfg.seconds) {
            for (slot, (class, plan)) in self.rotation.iter().enumerate() {
                request += 1;
                phase.attempted += 1;
                let root = rec.enter("query", request);
                let t = Instant::now();
                let prepared = rec.time("prepare.prepare", request, || db.prepare(plan));
                let out = match prepared {
                    Ok(q) => rec.time("exec.execute", request, || q.execute()),
                    Err(_) => {
                        rec.exit(root);
                        phase.errors += 1;
                        continue;
                    }
                };
                let host_ms = t.elapsed().as_secs_f64() * 1e3;
                rec.exit(root);
                if !out.is_ok() {
                    phase.errors += 1;
                    continue;
                }
                phase.host_latency_ms.push(host_ms);
                class_ms[slot].push(host_ms);
                // One client in a closed loop: a query is due when the
                // previous one completes, so due-to-done is service time.
                phase.modeled_latency_ms.push(out.stats().seconds() * 1e3);
                phase.absorb(out.stats(), class.label());
                results.push((*class, row_digest(out.rows())));
            }
        }
        phase.wall_s = started.elapsed().as_secs_f64();
        phase.cpu_s = process_cpu_s() - cpu0;
        // Each class's median over the rotations is its latency, robust to
        // a single slow run; throughput is one rotation over their sum.
        let medians: Vec<f64> = class_ms.iter().map(|v| median(v)).collect();
        phase.client_latency_ms = medians.clone();
        phase.host_qps = ratio(medians.len() as f64 * 1e3, medians.iter().sum());
        phase.notes.push(format!(
            "per-class median host ms over {} rotations: {}",
            class_ms[0].len(),
            self.rotation
                .iter()
                .zip(&medians)
                .map(|((c, _), m)| format!("{} {m:.1}", c.label()))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        let (c1, a1, r1) = snapshot(db);
        phase.cache = (c0, c1);
        phase.adapt = (a0, a1);
        phase.reuse = (r0, r1);
        phase.buffers_per_plan = buffers_per_plan(db);
        for (class, digest) in results {
            if oracle.reference(class, db.catalog(), &self.q1_cutoff) != digest {
                phase.mismatches += 1;
            }
        }
        phase
    }
}
