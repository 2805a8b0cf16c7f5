//! Self-tests of the benchmark: the deterministic counts repeat for one
//! seed, another seed changes the campaign plan but not the metric names,
//! and the names are exactly the ones `BENCHMARK.json` declares. Run with
//! `cargo test --release`: each traced run drives every layer.

use bwperf::trace::Tracer;
use bwperf::workloads::{Bench, Refs, Report, Workload};

/// Metric names declared under `key` (`end_to_end` or `per_layer`).
fn declared(key: &str) -> Vec<String> {
    let json = include_str!("../../BENCHMARK.json");
    let section = json
        .split(&format!("\"{key}\""))
        .nth(1)
        .expect("section present");
    let section = section.split(']').next().expect("section closes");
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("quoted name").to_string())
        .collect()
}

fn names(report: &Report) -> Vec<String> {
    report.metrics.iter().map(|(n, _, _)| n.clone()).collect()
}

fn per_layer(refs: &Refs, seed: u64) -> Report {
    let tracer = Tracer::default();
    let mut bench = Bench::new(refs, seed, Some(&tracer));
    bench
        .per_layer(Workload::Campaign, 1.0)
        .expect("traced run");
    assert!(tracer.records() > 0, "spans were recorded");
    bench.report
}

/// The metrics that must repeat exactly: counts and the modelled overhead.
fn deterministic(report: &Report) -> Vec<(String, f64)> {
    report
        .metrics
        .iter()
        .filter(|(n, _, unit)| *unit == "count" || n == "vm.sim.modelled_overhead")
        .map(|(n, v, _)| (n.clone(), *v))
        .collect()
}

#[test]
fn deterministic_counts_repeat_and_seed_changes_only_the_plan() {
    let refs = Refs::default();
    let a = per_layer(&refs, 1);
    let b = per_layer(&refs, 1);
    let c = per_layer(&refs, 2);
    for r in [&a, &b, &c] {
        assert_eq!(r.failed, 0, "{:?}", r.failures);
        assert_eq!(names(r), declared("per_layer"));
    }
    let counts = deterministic(&a);
    for name in [
        "vm.sim.steps",
        "vm.sim.events",
        "vm.real.events",
        "fault.outcome.detected",
        "ir.values",
    ] {
        assert!(
            counts.iter().any(|(n, _)| n == name),
            "{name} is a deterministic metric"
        );
    }
    assert_eq!(counts, deterministic(&b), "same seed, same counts");

    let plan = |seed| Bench::new(&refs, seed, None).campaign_sample();
    assert_ne!(plan(1), plan(2), "another seed picks other injections");
    let pass = |seed| Bench::new(&refs, seed, None).campaign_pass();
    assert_ne!(pass(1), pass(2), "another seed orders the pass differently");
    let mut sorted = (pass(1), pass(2));
    sorted.0.sort_unstable();
    sorted.1.sort_unstable();
    assert_eq!(sorted.0, sorted.1, "every pass covers the same rounds");
}

#[test]
fn end_to_end_reports_the_declared_metrics() {
    let refs = Refs::default();
    for workload in [Workload::Protect, Workload::Compile] {
        let mut bench = Bench::new(&refs, 3, None);
        bench.end_to_end(workload, 0.01).expect("untraced run");
        assert_eq!(bench.report.failed, 0, "{:?}", bench.report.failures);
        assert_eq!(names(&bench.report), declared("end_to_end"));
        assert!(bench
            .report
            .metrics
            .iter()
            .all(|(_, v, _)| v.is_finite() && *v > 0.0));
    }
}
