//! BufferDB's repository benchmark.
//!
//! One command drives one of three workloads through the public API of
//! `tpch`, `core::prepare` (`Database` / `PreparedQuery`) and
//! `core::server` (`VirtualServer`), checks every result against an
//! independent oracle, and prints the end-to-end metrics. With tracing on,
//! it runs the workload a second time with every layer call wrapped in a
//! span and prints the per-layer metrics instead. See `README.md` for the
//! workloads, their sizes and why each was chosen.

pub mod mix;
pub mod olap;
pub mod point;
pub mod queries;
pub mod report;
pub mod span;
pub mod stats;

use bufferdb::prelude::*;
use queries::ClassOracle;
use span::{Recorder, NO_REQUEST};
use std::path::PathBuf;
use std::time::Instant;

/// How many times a run sets up its workload; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    OlapScan,
    PointLookup,
    ServerMix,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::OlapScan,
        WorkloadKind::PointLookup,
        WorkloadKind::ServerMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::OlapScan => "olap_scan",
            WorkloadKind::PointLookup => "point_lookup",
            WorkloadKind::ServerMix => "server_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: WorkloadKind,
    pub seed: u64,
    /// Minimum host seconds the measured phase runs.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// server_mix's p99 limit for `modeled_capacity_qps`.
    pub latency_limit_ms: f64,
    /// Self-test sizes instead of the benchmark's.
    pub tiny: bool,
    /// Where the traced pass writes its spans (none: keep them in memory).
    pub span_dir: Option<PathBuf>,
}

/// Everything one measured phase produced, from outside the engine.
#[derive(Default)]
pub struct Phase {
    /// Host seconds of the measured phase (oracle checks excluded).
    pub wall_s: f64,
    /// Process CPU seconds used during the phase.
    pub cpu_s: f64,
    pub attempted: u64,
    pub completed: u64,
    /// Queries that returned an error or were refused.
    pub errors: u64,
    /// Results that disagree with the oracle.
    pub mismatches: u64,
    /// Broken engine invariants (each one fails the run).
    pub violations: Vec<String>,
    /// Completed queries per host second, as the workload estimates it
    /// robustly (see each workload).
    pub host_qps: f64,
    /// Host ms per closed-loop query, prepare through execute.
    pub host_latency_ms: Vec<f64>,
    /// The samples `latency_p50_ms` / `latency_p99_ms` are taken from: the
    /// latency the workload's client observes, on its own clock.
    pub client_latency_ms: Vec<f64>,
    /// Workload-specific lines for the human-readable report.
    pub notes: Vec<String>,
    /// Modeled ms per query (`ExecStats::seconds`).
    pub modeled_ms: Vec<f64>,
    /// Modeled ms from due time to completion.
    pub modeled_latency_ms: Vec<f64>,
    pub counters: PerfCounters,
    pub cycles: Cycles,
    pub rows_out: u64,
    pub cache: (CacheStats, CacheStats),
    pub adapt: (AdaptStats, AdaptStats),
    pub reuse: (ReuseStats, ReuseStats),
    /// Mean buffer operators per cached physical plan, and the plan count.
    pub buffers_per_plan: (f64, usize),
    /// server_mix only: the rate ladder.
    pub ladder: Option<mix::Ladder>,
}

/// `BreakdownReport` categories summed over queries.
#[derive(Debug, Default, Clone, Copy)]
pub struct Cycles {
    pub base: u64,
    pub l1i: u64,
    pub l2: u64,
    pub l1d: u64,
    pub itlb: u64,
    pub mispredict: u64,
    pub total: u64,
}

impl Phase {
    /// Account one completed execution and check the counter invariants
    /// the engine promises.
    pub fn absorb(&mut self, stats: &ExecStats, what: &str) {
        let c = stats.counters;
        let b = stats.breakdown;
        if c.l1i_cross_misses > c.l1i_misses {
            self.violations.push(format!(
                "{what}: l1i_cross_misses {} > l1i_misses {}",
                c.l1i_cross_misses, c.l1i_misses
            ));
        }
        let parts = b.base_cycles
            + b.l1i_penalty
            + b.l2_penalty
            + b.l1d_penalty
            + b.itlb_penalty
            + b.mispred_penalty;
        if parts != b.total_cycles {
            self.violations.push(format!(
                "{what}: breakdown parts sum to {parts}, total_cycles is {}",
                b.total_cycles
            ));
        }
        self.counters = self.counters + c;
        self.cycles.base += b.base_cycles;
        self.cycles.l1i += b.l1i_penalty;
        self.cycles.l2 += b.l2_penalty;
        self.cycles.l1d += b.l1d_penalty;
        self.cycles.itlb += b.itlb_penalty;
        self.cycles.mispredict += b.mispred_penalty;
        self.cycles.total += b.total_cycles;
        self.rows_out += stats.rows;
        self.modeled_ms.push(stats.seconds() * 1e3);
        self.completed += 1;
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }
}

/// The counters a phase snapshots before and after itself.
pub fn snapshot(db: &Database) -> (CacheStats, AdaptStats, ReuseStats) {
    (
        db.plan_cache().stats(),
        db.plan_cache().adapt_stats(),
        db.reuse_cache().stats(),
    )
}

/// Mean buffer operators per plan in `db`'s plan cache, and the plan count.
pub fn buffers_per_plan(db: &Database) -> (f64, usize) {
    let entries = db.plan_cache().entries();
    let buffers: usize = entries
        .iter()
        .map(|e| e.physical_plan().buffer_count())
        .sum();
    (
        stats::ratio(buffers as f64, entries.len() as f64),
        entries.len(),
    )
}

/// Open a `Database` over a freshly generated catalog, inside spans.
pub fn open_database(scale: f64, seed: u64, rec: &mut Recorder) -> Database {
    let catalog = rec.time("tpch.generate_catalog", NO_REQUEST, || {
        bufferdb::tpch::generate_catalog(scale, seed)
    });
    rec.time("prepare.open", NO_REQUEST, || {
        Database::open(catalog, MachineConfig::pentium4_like())
    })
}

/// A workload: set-up (everything before the first timed query) and one
/// measured phase that also checks its results.
pub trait Workload: Sized {
    fn setup(cfg: &Config, rec: &mut Recorder) -> Self;
    fn measure(&mut self, cfg: &Config, rec: &mut Recorder, oracle: &mut ClassOracle) -> Phase;
}

/// What a run hands to the report.
pub struct RunResult {
    pub setup_s: Vec<f64>,
    pub phase: Phase,
    pub peak_rss_mb: f64,
    /// Traced pass: its phase, its spans, the traced run's host seconds,
    /// and the index of the measured phase's first span.
    pub traced: Option<(Phase, Recorder, f64, usize)>,
}

fn run_workload<W: Workload>(cfg: &Config, process_start: Instant) -> RunResult {
    let mut oracle = ClassOracle::default();
    let mut untraced = Recorder::new(false);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for rep in 0..SETUP_REPS {
        // The first set-up counts from process start, as a user sees it.
        let start = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        drop(state.take());
        state = Some(W::setup(cfg, &mut untraced));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut state = state.expect("SETUP_REPS > 0");
    let phase = state.measure(cfg, &mut untraced, &mut oracle);
    drop(state);
    let peak_rss_mb = stats::peak_rss_mb();
    let traced = cfg.trace.then(|| {
        let mut rec = Recorder::new(true);
        let started = Instant::now();
        let root = rec.enter("run", NO_REQUEST);
        let setup = rec.enter("setup", NO_REQUEST);
        let mut state = W::setup(cfg, &mut rec);
        rec.exit(setup);
        let first = rec.spans().len();
        let measure = rec.enter("measure", NO_REQUEST);
        let phase = state.measure(cfg, &mut rec, &mut oracle);
        rec.exit(measure);
        rec.exit(root);
        (phase, rec, started.elapsed().as_secs_f64(), first)
    });
    RunResult {
        setup_s,
        phase,
        peak_rss_mb,
        traced,
    }
}

/// Run the configured workload and build its report.
pub fn run(cfg: &Config, process_start: Instant) -> report::Report {
    let result = match cfg.workload {
        WorkloadKind::OlapScan => run_workload::<olap::Olap>(cfg, process_start),
        WorkloadKind::PointLookup => run_workload::<point::Point>(cfg, process_start),
        WorkloadKind::ServerMix => run_workload::<mix::Mix>(cfg, process_start),
    };
    report::build(cfg, result)
}
