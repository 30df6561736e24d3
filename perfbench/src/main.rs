//! `perfbench --workload <olap_scan|point_lookup|server_mix> --seed <n>
//! --seconds <s> --trace <0|1> --latency-limit-ms <ms>`
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits 1 when any
//! result disagrees with the oracle or an engine invariant breaks, 2 on a
//! bad command line.

use bufferdb_perfbench::{run, Config, WorkloadKind};
use std::os::unix::process::CommandExt;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <olap_scan|point_lookup|server_mix> \
--seed <n> --seconds <s> --trace <0|1> --latency-limit-ms <ms>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut limit = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(WorkloadKind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--latency-limit-ms" => {
                let ms = value.parse::<f64>().map_err(|_| bad())?;
                if !(ms > 0.0 && ms.is_finite()) {
                    return Err(bad());
                }
                limit = Some(ms);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok(Config {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        latency_limit_ms: limit.ok_or_else(|| missing("--latency-limit-ms"))?,
        tiny: false,
        span_dir: Some(PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))),
    })
}

/// Re-run this program with glibc pinned to one malloc arena. Without
/// it, peak RSS depends on how many per-thread arenas the server's drive
/// threads happened to touch (about ±15 % run to run), not on the engine.
/// Returns only if the re-exec fails.
fn pin_malloc_arenas(args: &[String]) {
    if std::env::var_os(ARENA_VAR).is_some() {
        return;
    }
    let err = std::env::current_exe().map(|exe| {
        std::process::Command::new(exe)
            .args(args)
            .env(ARENA_VAR, "1")
            .exec()
    });
    eprintln!("warning: running with default malloc arenas: {err:?}");
}

const ARENA_VAR: &str = "MALLOC_ARENA_MAX";

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    pin_malloc_arenas(&args);
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&cfg, process_start);
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
