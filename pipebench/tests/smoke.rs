//! Every workload at smoke size, untraced and traced, with every output
//! check on. Run with `cargo test --release` from this directory: the
//! JPEG design's native lowering takes about 2 s in a release build and
//! far longer unoptimized.

use pipebench::{Config, Workload, END_TO_END, PER_LAYER};

fn smoke(workload: Workload, trace: bool) -> pipebench::RunResult {
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        smoke: true,
    };
    let result = pipebench::run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(result.correct, "{}: {:?}", workload.name(), result.failures);
    assert_eq!(
        result.failed,
        0,
        "{}: {:?}",
        workload.name(),
        result.failures
    );
    assert!(result.attempted > 0);
    let want: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    let got: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
    assert_eq!(got, want, "{}", workload.name());
    for m in &result.metrics {
        assert!(
            m.value.is_finite(),
            "{}: {} = {}",
            workload.name(),
            m.name,
            m.value
        );
    }
    result
}

#[test]
fn edit_recheck_smoke() {
    let plain = smoke(Workload::EditRecheck, false);
    assert!(plain.metric("latency_p50_ms").unwrap() > 0.0);
    let traced = smoke(Workload::EditRecheck, true);
    for live in [
        "jtlang.parse_ms",
        "jtanalysis.db.analyze_ms",
        "sfr.session.check_ms",
        "jtanalysis.db.recomputed",
    ] {
        assert!(traced.metric(live).unwrap() > 0.0, "{live}");
    }
    assert_eq!(traced.metric("jtvm.native.lower_ms"), Some(0.0));
    assert!(traced.trace.is_some());
}

#[test]
fn jpeg_embed_smoke() {
    smoke(Workload::JpegEmbed, false);
    let traced = smoke(Workload::JpegEmbed, true);
    for live in [
        "jtvm.native.lower_ms",
        "jtvm.native.code_bytes",
        "jtvm.vm.steps_per_react",
        "asr.instant_us",
    ] {
        assert!(traced.metric(live).unwrap() > 0.0, "{live}");
    }
    assert_eq!(traced.metric("jtvm.tier.native_blocks"), Some(1.0));
}

#[test]
fn asr_grid_smoke() {
    smoke(Workload::AsrGrid, false);
    let traced = smoke(Workload::AsrGrid, true);
    for live in [
        "asr.parallel.instant_us",
        "asr.block_evals_per_instant",
        "jtvm.vm.ns_per_step",
    ] {
        assert!(traced.metric(live).unwrap() > 0.0, "{live}");
    }
    assert_eq!(traced.metric("asr.plan.cyclic_strata"), Some(1.0));
    assert_eq!(traced.metric("jtvm.tier.native_blocks"), Some(18.0));
    assert_eq!(traced.metric("jtvm.tier.vm_blocks"), Some(6.0));
}

/// BENCHMARK.json at the repository root names exactly the workloads and
/// metrics this package reports.
#[test]
fn benchmark_json_matches_the_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut names: Vec<&str> = text
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    let mut want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    want.extend(END_TO_END);
    want.extend(PER_LAYER);
    names.sort_unstable();
    want.sort_unstable();
    assert_eq!(names, want);
}
