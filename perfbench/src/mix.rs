//! `server_mix`: an open loop on the `VirtualServer`'s virtual clock.
//!
//! About 90 % of arrivals are lookups ("mice") and 10 % analytic
//! "elephants" (paperQ1, Q1, Q6, Q12, Q14, paper Q3 hash). Arrivals are
//! Poisson at fixed absolute rates; a ladder of rungs with the same
//! arrival count and a fresh 4-slot, 2-worker server per rung shares one
//! `Database`, so plan cache, reuse cache and adaptivity carry across
//! rungs. Every completion goes through `absorb_feedback` and
//! `harvest_reuse` (profiling on), and each rung bumps the stats epoch
//! once, a quarter of the way through its arrivals.
//!
//! `VirtualServer::run_until` keeps running admitted work past its
//! horizon until the server idles, so an arrival submitted after a
//! `run_until` call could find the virtual clock already past its due
//! time. The generator therefore submits each rung's whole arrival
//! schedule before it first advances the clock, then steps the clock
//! through the schedule and drains; the run checks that no arrival was
//! ever late.

use crate::point::bump_epoch;
use crate::queries::{seeded_q1_cutoff, Class, ClassOracle, LookupOracle, LookupSpace};
use crate::span::{Recorder, NO_REQUEST};
use crate::stats::{mean, percentile, process_cpu_s, ratio, row_digest};
use crate::{buffers_per_plan, open_database, snapshot, Config, Phase, Workload};
use bufferdb::prelude::*;
use bufferdb::types::rng::Rng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

const ELEPHANTS: [Class; 6] = [
    Class::PaperQ1,
    Class::Q1,
    Class::Q6,
    Class::Q12,
    Class::Q14,
    Class::Q3Hash,
];

const WORKERS: usize = 2;
const SLOTS: usize = 4;
/// Offered rates (arrivals per virtual second), ascending.
const RATES: [f64; 3] = [50.0, 75.0, 100.0];
/// The rung whose latency and modeled cost are reported end to end.
const NOMINAL: usize = 0;
const ELEPHANT_SHARE: f64 = 0.1;
/// Share of a rung's arrivals submitted before its stats-epoch bump.
const BUMP_SHARE: f64 = 0.25;
/// Zipf exponent over lookup plan ranks.
const THETA: f64 = 1.0;
/// `run_until` steps per rung before the final drain.
const STEPS: u64 = 10;

pub struct Params {
    pub scale: f64,
    pub mouse_plans: usize,
}

pub fn params(tiny: bool) -> Params {
    if tiny {
        Params {
            scale: 0.001,
            mouse_plans: 128,
        }
    } else {
        Params {
            scale: 0.002,
            mouse_plans: 1024,
        }
    }
}

/// Arrivals per rung: 50 per requested second (1000 at 20 s, enough for
/// 10 samples beyond p99), at least 60. The ladder takes about twice the
/// requested seconds of host time on a 2-vCPU host.
pub fn arrivals(seconds: f64) -> usize {
    ((50.0 * seconds).round() as usize).max(60)
}

fn bump_at(n: usize) -> usize {
    (n as f64 * BUMP_SHARE).round() as usize
}

/// What one arrival asks for.
#[derive(Debug, Clone, Copy)]
enum Item {
    Elephant(usize),
    Mouse(usize),
}

/// A submitted query awaiting completion.
struct Pending {
    request: u64,
    item: Item,
    entry: Arc<CacheEntry>,
    executed: PlanNode,
}

/// A result waiting for the oracle.
enum Check {
    Class(Class, u64),
    Lookup(usize, Vec<Tuple>),
}

/// One rung of the rate ladder.
#[derive(Debug, Clone, Default)]
pub struct Rung {
    pub rate: f64,
    /// Modeled due-to-done latency per completed query, ms.
    pub latency_ms: Vec<f64>,
    /// Modeled execution cost per completed query (`ExecStats::seconds`), ms.
    pub modeled_ms: Vec<f64>,
    /// Modeled admission wait (`start_ns - arrival_ns`), ms.
    pub wait_ms: Vec<f64>,
    /// Modeled service (`done_ns - start_ns`), ms.
    pub service_ms: Vec<f64>,
    /// Most queries in the system (queued or running) at any arrival.
    pub backlog_max: u64,
    /// The backlog grows: the server is not keeping up (see
    /// `growing_backlog`).
    pub growing: bool,
    /// Session-core quantum grants.
    pub turns: u64,
    /// Morsel units the pool ran, and how many were stolen.
    pub units: u64,
    pub steals: u64,
    /// Arrivals the clock passed before they were submitted (must be 0).
    pub late: u64,
}

impl Rung {
    pub fn p50_ms(&self) -> f64 {
        percentile(&self.latency_ms, 0.5)
    }

    pub fn p99_ms(&self) -> f64 {
        percentile(&self.latency_ms, 0.99)
    }

    fn meets(&self, limit_ms: f64) -> bool {
        !self.growing && self.p99_ms() <= limit_ms
    }
}

#[derive(Debug, Clone, Default)]
pub struct Ladder {
    pub rungs: Vec<Rung>,
    pub nominal: usize,
    /// Highest rate meeting the p99 limit without a growing backlog; see
    /// [`capacity_qps`].
    pub capacity_qps: f64,
    pub turns: u64,
    pub units: u64,
    pub steals: u64,
    /// Arrivals the clock passed before they were submitted (must be 0).
    pub late: u64,
}

/// The highest rung that meets the limit, with every rung below it
/// meeting it too. When the next rung misses on p99 alone, the capacity is
/// interpolated linearly to where p99 crosses the limit between the two
/// rungs, so it moves smoothly with latency instead of jumping between
/// rungs. 0 when even the lowest rung misses.
pub fn capacity_qps(rungs: &[Rung], limit_ms: f64) -> f64 {
    let passing = rungs.iter().take_while(|r| r.meets(limit_ms)).count();
    if passing == 0 {
        return 0.0;
    }
    let last = &rungs[passing - 1];
    match rungs.get(passing) {
        Some(next) if !next.growing && next.p99_ms() > last.p99_ms() => {
            let frac = (limit_ms - last.p99_ms()) / (next.p99_ms() - last.p99_ms());
            last.rate + (next.rate - last.rate) * frac
        }
        _ => last.rate,
    }
}

/// Backlog (arrived minus completed) seen by each arrival, in arrival order.
fn backlog_at_arrivals(arrivals: &[u64], mut done: Vec<u64>) -> Vec<u64> {
    done.sort_unstable();
    arrivals
        .iter()
        .enumerate()
        .map(|(i, &a)| (i + 1 - done.partition_point(|&d| d <= a).min(i + 1)) as u64)
        .collect()
}

/// Whether the backlog grows over `backlog` (the arrivals after the
/// rung's epoch bump, one steady regime): the mean over its last third
/// clearly above the mean over its middle third.
fn growing_backlog(backlog: &[u64], slots: usize) -> bool {
    let third = backlog.len() / 3;
    if third == 0 {
        return false;
    }
    let avg = |s: &[u64]| mean(&s.iter().map(|&b| b as f64).collect::<Vec<_>>());
    let middle = avg(&backlog[third..2 * third]);
    let last = avg(&backlog[2 * third..]);
    last > 2.0 * middle + 2.0 * slots as f64
}

pub struct Mix {
    db: Database,
    q1_cutoff: String,
    elephants: Vec<PlanNode>,
    space: LookupSpace,
    stream: Rng,
    /// Results of the current measured phase awaiting the oracle.
    checks: Vec<Check>,
}

fn profiled() -> QueryOpts {
    QueryOpts::new().profile(true)
}

impl Mix {
    fn plan(&self, item: Item) -> &PlanNode {
        match item {
            Item::Elephant(i) => &self.elephants[i],
            Item::Mouse(rank) => self.space.get(rank).plan(),
        }
    }

    /// `len` arrivals' items: exactly `round(len * ELEPHANT_SHARE)` elephants in
    /// seeded positions, split evenly over the classes (any remainder to
    /// the first classes) in seeded order, and zipfian lookups for the rest.
    fn items(&mut self, len: usize) -> Vec<Item> {
        let rng = &mut self.stream;
        let n_eleph = (len as f64 * ELEPHANT_SHARE).round() as usize;
        let mut classes: Vec<usize> = (0..n_eleph).map(|i| i % ELEPHANTS.len()).collect();
        shuffle(&mut classes, rng);
        let mut is_eleph: Vec<bool> = (0..len).map(|i| i < n_eleph).collect();
        shuffle(&mut is_eleph, rng);
        let mut classes = classes.into_iter();
        is_eleph
            .into_iter()
            .map(|eleph| match eleph.then(|| classes.next()).flatten() {
                Some(class) => Item::Elephant(class),
                None => Item::Mouse(self.space.sample(rng)),
            })
            .collect()
    }

    /// One rung's schedule: `n` arrivals at `rate`. The gaps are the `n`
    /// exponential quantiles in seeded order, so the rate is exact and
    /// only the order is random. The arrivals before and after `bump`
    /// each get their exact share of elephants, so no seed shifts work
    /// across the rung's stats-epoch bump.
    fn schedule(&mut self, rate: f64, n: usize, bump: usize) -> Vec<(u64, Item)> {
        let mut gaps: Vec<f64> = (0..n)
            .map(|k| -(1.0 - (k as f64 + 0.5) / n as f64).ln() / rate)
            .collect();
        shuffle(&mut gaps, &mut self.stream);
        let mut items = self.items(bump);
        items.extend(self.items(n - bump));
        let mut t = 0.0;
        gaps.iter()
            .zip(items)
            .map(|(gap, item)| {
                t += gap;
                ((t * 1e9).round() as u64, item)
            })
            .collect()
    }

    fn run_rung(&mut self, rate: f64, n: usize, rec: &mut Recorder, phase: &mut Phase) -> Rung {
        let bump = bump_at(n);
        let schedule = self.schedule(rate, n, bump);
        let db = &self.db;
        let opts = profiled();
        let mut server = VirtualServer::new(ServerConfig::new(
            WORKERS,
            SLOTS,
            MachineConfig::pentium4_like(),
        ));
        let mut pending: HashMap<u64, Pending> = HashMap::new();
        let mut submitted = 0usize;
        for (i, &(due, item)) in schedule.iter().enumerate() {
            if i == bump {
                // The write path: ANALYZE after a load. Later prepares find
                // every cached plan and reuse entry stale.
                bump_epoch(db, rec);
            }
            phase.attempted += 1;
            let request = phase.attempted;
            let plan = self.plan(item);
            let root = rec.enter("arrival", request);
            let submit = rec
                .time("prepare.prepare", request, || db.prepare(plan))
                .and_then(|q| {
                    let executed = q.plan();
                    let entry = Arc::clone(q.entry());
                    let spec = SubmitSpec::new(&executed, db.catalog())
                        .at(due)
                        .opts(opts.clone());
                    let id = rec.time("server.submit", request, || server.submit(spec))?;
                    Ok((id, entry, executed))
                });
            rec.exit(root);
            submitted += 1;
            match submit {
                Ok((id, entry, executed)) => {
                    pending.insert(
                        id,
                        Pending {
                            request,
                            item,
                            entry,
                            executed,
                        },
                    );
                }
                // Refused before reaching the server.
                Err(_) => phase.errors += 1,
            }
        }
        let last_due = schedule.last().map_or(0, |a| a.0);
        let dues: Vec<u64> = schedule.iter().map(|a| a.0).collect();
        let mut rung = Rung {
            rate,
            ..Rung::default()
        };
        let mut done_ns = Vec::with_capacity(n);
        let mut clock = 0u64;
        for step in 1..=STEPS + 1 {
            let horizon = if step > STEPS {
                u64::MAX
            } else {
                last_due / STEPS * step
            };
            let completed = rec.time("server.run_until", NO_REQUEST, || server.run_until(horizon));
            for c in completed {
                clock = clock.max(c.done_ns);
                // Every arrival due by the clock the server reached must
                // have been submitted before it got there.
                let due_by_clock = dues.partition_point(|&d| d <= clock);
                rung.late = rung.late.max(due_by_clock.saturating_sub(submitted) as u64);
                let pend = pending
                    .remove(&c.id)
                    .expect("completion for an unknown submission");
                done_ns.push(c.done_ns);
                let ms = |ns: u64| ns as f64 / 1e6;
                rung.latency_ms.push(ms(c.done_ns - c.arrival_ns));
                rung.wait_ms
                    .push(ms(c.start_ns.saturating_sub(c.arrival_ns)));
                rung.service_ms
                    .push(ms(c.done_ns - c.start_ns.max(c.arrival_ns)));
                let mut out = c.outcome;
                if out.is_ok() {
                    let what = match pend.item {
                        Item::Elephant(i) => ELEPHANTS[i].label(),
                        Item::Mouse(_) => "lookup",
                    };
                    phase.absorb(out.stats(), what);
                    rung.modeled_ms.push(out.stats().seconds() * 1e3);
                    self.checks.push(match pend.item {
                        Item::Elephant(i) => Check::Class(ELEPHANTS[i], row_digest(out.rows())),
                        Item::Mouse(rank) => Check::Lookup(rank, out.rows().to_vec()),
                    });
                } else {
                    phase.errors += 1;
                }
                let request = pend.request;
                rec.time("adapt.absorb_feedback", request, || {
                    db.absorb_feedback(&pend.entry, &pend.executed, &mut out)
                });
                let logical = match pend.item {
                    Item::Elephant(i) => &self.elephants[i],
                    Item::Mouse(rank) => self.space.get(rank).plan(),
                };
                rec.time("reuse.harvest_reuse", request, || {
                    db.harvest_reuse(logical, &opts)
                });
            }
        }
        if !pending.is_empty() {
            phase.violations.push(format!(
                "{} queries never completed at {rate} qps",
                pending.len()
            ));
        }
        let backlog = backlog_at_arrivals(&dues, done_ns);
        rung.backlog_max = backlog.iter().copied().max().unwrap_or(0);
        rung.growing = growing_backlog(&backlog[bump..], SLOTS);
        let st = server.stats();
        rung.turns = server.turns();
        rung.units = st.units;
        rung.steals = st.steals;
        rung
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

impl Workload for Mix {
    /// Generate the catalog, open a 2-worker database, and run the warm-up
    /// pass: every elephant once (profiled, with feedback and a reuse
    /// harvest, as the server path does) plus a batch of lookups.
    fn setup(cfg: &Config, rec: &mut Recorder) -> Self {
        let p = params(cfg.tiny);
        let mut db = open_database(p.scale, cfg.seed, rec);
        db.set_threads(WORKERS);
        let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x5e_4e4_3a1);
        let q1_cutoff = seeded_q1_cutoff(&mut rng);
        let elephants: Vec<PlanNode> = ELEPHANTS
            .iter()
            .map(|c| c.plan(db.catalog(), &q1_cutoff))
            .collect();
        let space = LookupSpace::new(db.catalog(), p.mouse_plans, THETA, &mut rng);
        let opts = profiled();
        let warm: Vec<&PlanNode> = elephants
            .iter()
            .chain((0..p.mouse_plans / 8).map(|_| space.get(space.sample(&mut rng)).plan()))
            .collect();
        for plan in warm {
            let q = rec
                .time("prepare.prepare", NO_REQUEST, || db.prepare(plan))
                .expect("warm-up prepare");
            let executed = q.plan();
            let mut out = rec.time("exec.execute", NO_REQUEST, || q.execute_opts(&opts));
            assert!(out.is_ok(), "warm-up query failed: {:?}", out.error());
            rec.time("adapt.absorb_feedback", NO_REQUEST, || {
                db.absorb_feedback(q.entry(), &executed, &mut out)
            });
            rec.time("reuse.harvest_reuse", NO_REQUEST, || {
                db.harvest_reuse(plan, &opts)
            });
        }
        let stream = Rng::seed_from_u64(rng.next_u64());
        Mix {
            db,
            q1_cutoff,
            elephants,
            space,
            stream,
            checks: Vec::new(),
        }
    }

    /// The whole ladder, once. Its size is set by `cfg.seconds` through
    /// the arrival count, so modeled results never depend on host speed.
    fn measure(&mut self, cfg: &Config, rec: &mut Recorder, oracle: &mut ClassOracle) -> Phase {
        let n = arrivals(cfg.seconds);
        let mut phase = Phase::default();
        let (c0, a0, r0) = snapshot(&self.db);
        let cpu0 = process_cpu_s();
        let started = Instant::now();
        let rungs: Vec<Rung> = RATES
            .iter()
            .map(|&rate| self.run_rung(rate, n, rec, &mut phase))
            .collect();
        let ladder = Ladder {
            nominal: NOMINAL,
            capacity_qps: capacity_qps(&rungs, cfg.latency_limit_ms),
            turns: rungs.iter().map(|r| r.turns).sum(),
            units: rungs.iter().map(|r| r.units).sum(),
            steals: rungs.iter().map(|r| r.steals).sum(),
            late: rungs.iter().map(|r| r.late).sum(),
            rungs,
        };
        phase.wall_s = started.elapsed().as_secs_f64();
        phase.cpu_s = process_cpu_s() - cpu0;
        phase.host_qps = ratio(phase.completed as f64, phase.wall_s);
        let db = &self.db;
        let (c1, a1, r1) = snapshot(db);
        phase.cache = (c0, c1);
        phase.adapt = (a0, a1);
        phase.reuse = (r0, r1);
        phase.buffers_per_plan = buffers_per_plan(db);
        if ladder.late > 0 {
            phase
                .violations
                .push(format!("generator ran late by {} arrivals", ladder.late));
        }
        let nominal = &ladder.rungs[NOMINAL];
        phase.modeled_latency_ms = nominal.latency_ms.clone();
        phase.client_latency_ms = nominal.latency_ms.clone();
        phase.modeled_ms = nominal.modeled_ms.clone();
        phase.ladder = Some(ladder);
        let mut lookups = LookupOracle::default();
        for check in std::mem::take(&mut self.checks) {
            let ok = match check {
                Check::Class(class, digest) => {
                    oracle.reference(class, db.catalog(), &self.q1_cutoff) == digest
                }
                Check::Lookup(rank, rows) => {
                    lookups.matches(&self.space, rank, db.catalog(), &rows)
                }
            };
            if !ok {
                phase.mismatches += 1;
            }
        }
        phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, p99: f64, growing: bool) -> Rung {
        Rung {
            rate,
            latency_ms: vec![p99],
            growing,
            ..Rung::default()
        }
    }

    #[test]
    fn capacity_interpolates_to_the_limit() {
        let rungs = [rung(50.0, 500.0, false), rung(100.0, 1500.0, false)];
        assert_eq!(capacity_qps(&rungs, 1000.0), 75.0);
        assert_eq!(capacity_qps(&rungs, 2000.0), 100.0);
        assert_eq!(capacity_qps(&rungs, 100.0), 0.0);
    }

    #[test]
    fn growing_backlog_stops_the_ladder() {
        let rungs = [rung(50.0, 500.0, false), rung(100.0, 600.0, true)];
        assert_eq!(capacity_qps(&rungs, 1000.0), 50.0);
    }

    #[test]
    fn backlog_counts_arrived_minus_done() {
        assert_eq!(
            backlog_at_arrivals(&[10, 20, 30], vec![15, 40, 50]),
            vec![1, 1, 2]
        );
    }
}
