//! Overhead of the always-on flight recorder (DESIGN.md, "Execution
//! observability").
//!
//! Runs the same chain-64 system three ways — no registry attached,
//! registry attached (journal + per-block histograms live), and
//! registry attached with an armed 1-second deadline that never fires —
//! and reports wall time per instant for each. The uninstrumented row
//! is the baseline the telemetry-off build must match (every journal
//! call compiles out); the instrumented rows price the `Option<obs>`
//! hot path when telemetry is on.

use asr::prelude::*;
use criterion::{criterion_group, Criterion};
use std::hint::black_box;

fn variants() -> [(&'static str, bool, bool); 3] {
    // (label, attach registry, arm deadline)
    [
        ("bare", false, false),
        ("journal", true, false),
        ("journal+deadline", true, true),
    ]
}

fn prepared(attach: bool, deadline: bool) -> (System, jtobs::Registry) {
    let registry = jtobs::Registry::new();
    let mut sys = bench::chain(64);
    sys.set_strategy(Strategy::Staged);
    if attach {
        sys.attach_registry(&registry);
    }
    if deadline {
        sys.set_deadline_ns(Some(1_000_000_000));
    }
    (sys, registry)
}

fn print_report() {
    println!("\nJournal overhead: chain-64, staged, 1000 instants per sample");
    let mut baseline = None;
    for (label, attach, deadline) in variants() {
        let (mut sys, _registry) = prepared(attach, deadline);
        // Warm up, then take the best of 10 batches.
        let mut best = f64::INFINITY;
        for _ in 0..10 {
            let start = std::time::Instant::now();
            for k in 0..1000 {
                black_box(sys.react(&[Value::int(k)]).expect("instant"));
            }
            best = best.min(start.elapsed().as_secs_f64());
        }
        let per_instant_us = best * 1e3 / 1000.0 * 1e3;
        match baseline {
            None => {
                baseline = Some(best);
                println!("{label:>18}: {per_instant_us:>8.2} us/instant");
            }
            Some(b) => println!(
                "{label:>18}: {per_instant_us:>8.2} us/instant  (×{:.3} of bare)",
                best / b
            ),
        }
    }
    println!("(telemetry-off builds compile the journal out entirely)\n");
}

fn bench_journal(c: &mut Criterion) {
    print_report();
    let mut group = c.benchmark_group("journal_overhead");
    for (label, attach, deadline) in variants() {
        let (mut sys, _registry) = prepared(attach, deadline);
        group.bench_function(label, |b| {
            b.iter(|| black_box(sys.react(&[Value::int(3)]).expect("instant")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_journal);

fn main() {
    benches();
    bench::write_bench_json("journal_overhead", &bench::criterion_rows());
}
