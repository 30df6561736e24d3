//! Self-test: every workload at tiny size through the library entry
//! point. Run with `cargo test --release` from this directory.

use bufferdb_perfbench::report::{Report, END_TO_END, PER_LAYER, PER_LAYER_TAIL};
use bufferdb_perfbench::{run, Config, WorkloadKind};
use std::time::Instant;

fn tiny(workload: WorkloadKind, seed: u64, trace: bool) -> Report {
    let cfg = Config {
        workload,
        seed,
        seconds: 0.5,
        trace,
        latency_limit_ms: 500.0,
        tiny: true,
        span_dir: None,
    };
    run(&cfg, Instant::now())
}

fn assert_clean(r: &Report, what: &str) {
    assert!(r.correct, "{what} not correct:\n{}", r.lines.join("\n"));
    assert_eq!(r.failed, 0, "{what}: failed_ratio must be 0");
    assert!(r.attempted > 0, "{what} attempted nothing");
}

fn assert_metrics(r: &Report, names: &[(&str, &str)], what: &str) {
    assert_eq!(r.metrics.len(), names.len(), "{what}: metric count");
    for (name, unit) in names {
        let m = r
            .metric(name)
            .unwrap_or_else(|| panic!("{what}: missing {name}"));
        assert_eq!(m.unit, *unit, "{what}: unit of {name}");
        assert!(
            m.value.is_finite() && m.value >= 0.0,
            "{what}: {name} = {}",
            m.value
        );
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for w in WorkloadKind::ALL {
        let r = tiny(w, 7, false);
        assert_clean(&r, w.name());
        assert_metrics(&r, &END_TO_END, w.name());
        for (name, _) in END_TO_END {
            let v = r.metric(name).expect("checked above").value;
            assert!(v > 0.0, "{}: end-to-end {name} must never be 0", w.name());
        }
        let json = r.json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
        assert!(!json.contains('\n'), "the result is one line");
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let names: Vec<(&str, &str)> = PER_LAYER.iter().chain(&PER_LAYER_TAIL).copied().collect();
    for w in WorkloadKind::ALL {
        let r = tiny(w, 7, true);
        assert_clean(&r, w.name());
        assert_metrics(&r, &names, w.name());
        let overhead = r
            .metric("trace.overhead_ratio")
            .expect("checked above")
            .value;
        assert!(
            overhead > 0.0,
            "{}: trace.overhead_ratio {overhead}",
            w.name()
        );
        assert!(r.metric("trace.spans").expect("checked above").value > 0.0);
    }
}

/// The modeled lines of a report (model time never depends on the host).
fn modeled(r: &Report) -> Vec<String> {
    r.lines
        .iter()
        .filter(|l| l.starts_with("modeled_"))
        .cloned()
        .collect()
}

#[test]
fn point_lookup_modeled_metrics_repeat_bit_for_bit() {
    let a = tiny(WorkloadKind::PointLookup, 11, false);
    let b = tiny(WorkloadKind::PointLookup, 11, false);
    let bits = |r: &Report| {
        r.metric("modeled_ms_per_query")
            .expect("present")
            .value
            .to_bits()
    };
    assert_eq!(bits(&a), bits(&b));
    assert_eq!(modeled(&a), modeled(&b));
    assert_eq!(modeled(&a).len(), 3, "per-query mean plus two percentiles");
}

#[test]
fn held_out_seed_runs_clean() {
    for w in WorkloadKind::ALL {
        let r = tiny(w, 20_260_417, false);
        assert_clean(&r, w.name());
    }
}
