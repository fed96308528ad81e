//! Behavioural tests for the instrumentation crate: metric semantics,
//! thread safety, and well-formedness of the Chrome trace export.
//!
//! Everything that inspects recorded values is gated on
//! [`jtobs::ENABLED`] so the suite also passes (trivially) with
//! `--no-default-features`, where every operation is a no-op.

use jtobs::json::Json;
use jtobs::Registry;
use proptest::prelude::*;

#[test]
fn counters_accumulate_and_share_by_name() {
    let registry = Registry::new();
    let a = registry.counter("hits");
    let b = registry.counter("hits");
    a.inc();
    b.add(4);
    if jtobs::ENABLED {
        assert_eq!(a.get(), 5, "same name resolves to the same counter");
        assert_eq!(registry.counter_value("hits"), 5);
        assert_eq!(registry.counter_value("missing"), 0);
        assert_eq!(registry.counters(), vec![("hits".to_string(), 5)]);
    }
}

#[test]
fn gauges_go_up_and_down() {
    let registry = Registry::new();
    let g = registry.gauge("depth");
    g.set(3);
    g.add(-5);
    if jtobs::ENABLED {
        assert_eq!(g.get(), -2);
        assert_eq!(registry.gauge_value("depth"), -2);
    }
}

#[test]
fn histogram_stats_track_extremes_and_mean() {
    let registry = Registry::new();
    let h = registry.histogram("latency");
    for v in [10, 20, 30] {
        h.record(v);
    }
    if jtobs::ENABLED {
        let stats = registry.histogram_stats("latency").unwrap();
        assert_eq!(stats.count, 3);
        assert_eq!((stats.min, stats.max), (10, 30));
        assert!((stats.mean() - 20.0).abs() < 1e-9);
        // The log2-bucketed quantile is approximate, but must stay
        // within the recorded range.
        let p50 = h.approx_quantile(0.5);
        assert!((10..=30).contains(&p50), "p50 = {p50}");
        assert!(registry.histogram_stats("missing").is_none());
    }
}

#[test]
fn spans_record_duration_and_nest() {
    let registry = Registry::new();
    {
        let _outer = registry.span("outer");
        let _inner = registry.span("inner");
    }
    if jtobs::ENABLED {
        assert_eq!(registry.histogram_stats("outer").unwrap().count, 1);
        assert_eq!(registry.histogram_stats("inner").unwrap().count, 1);
        // B(outer) B(inner) E(inner) E(outer)
        assert_eq!(registry.trace_event_count(), 4);
    }
}

#[test]
fn concurrent_updates_lose_nothing() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let registry = Registry::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let registry = &registry;
            scope.spawn(move || {
                let c = registry.counter("shared");
                let h = registry.histogram("values");
                for i in 0..PER_THREAD {
                    c.inc();
                    h.record(t as u64 * PER_THREAD + i);
                    if i % 1000 == 0 {
                        let _span = registry.span("tick");
                    }
                }
            });
        }
    });
    if jtobs::ENABLED {
        assert_eq!(
            registry.counter_value("shared"),
            THREADS as u64 * PER_THREAD
        );
        let stats = registry.histogram_stats("values").unwrap();
        assert_eq!(stats.count, THREADS as u64 * PER_THREAD);
        assert_eq!(stats.min, 0);
        assert_eq!(stats.max, THREADS as u64 * PER_THREAD - 1);
        assert_eq!(registry.histogram_stats("tick").unwrap().count as usize, THREADS * 10);
    }
}

#[test]
fn histogram_bucket_edges_do_not_saturate_wrongly() {
    // The log2 bucketing has three delicate edges: zero (no ilog2),
    // exact powers of two (bucket boundary), and u64::MAX (bucket 63,
    // where `(2 << i) - 1` would overflow). All must record and
    // quantile without wrapping.
    let registry = Registry::new();

    let zeros = registry.histogram("edge.zeros");
    zeros.record(0);
    zeros.record(0);
    let pow = registry.histogram("edge.pow");
    for v in [1u64, 2, 3, 4, 7, 8, (1 << 32) - 1, 1 << 32] {
        pow.record(v);
    }
    let max = registry.histogram("edge.max");
    max.record(u64::MAX);
    max.record(u64::MAX - 1);

    if jtobs::ENABLED {
        let z = zeros.stats();
        assert_eq!((z.count, z.min, z.max, z.sum), (2, 0, 0, 0));
        // A histogram of only zeros must quantile to zero, not to the
        // bucket-0 upper bound of 1.
        assert_eq!(zeros.approx_quantile(0.5), 0);
        assert_eq!(zeros.approx_quantile(1.0), 0);

        let p = pow.stats();
        assert_eq!(p.count, 8);
        assert_eq!((p.min, p.max), (1, 1 << 32));
        // Every quantile answer is a valid upper bound within range.
        for q in [0.0, 0.25, 0.5, 0.75, 0.95, 1.0] {
            let v = pow.approx_quantile(q);
            assert!(v <= 1 << 32, "q={q} gave {v}");
        }
        // Sample 3/8 lives in bucket 1 (values 2..=3), so the upper
        // bound for the three smallest samples is exactly 3.
        assert_eq!(pow.approx_quantile(0.375), 3);

        let m = max.stats();
        assert_eq!(m.count, 2);
        assert_eq!(m.max, u64::MAX);
        // Sum saturates instead of wrapping.
        assert_eq!(m.sum, u64::MAX);
        // Bucket 63's upper bound must come back as u64::MAX (capped at
        // the observed max), never a shifted-into-zero garbage value.
        // Both samples share bucket 63, so every quantile reports the
        // bucket's capped upper bound.
        assert_eq!(max.approx_quantile(1.0), u64::MAX);
        assert_eq!(max.approx_quantile(0.0), u64::MAX);
    } else {
        assert_eq!(zeros.approx_quantile(1.0), 0);
        assert_eq!(max.approx_quantile(1.0), 0);
    }
}

#[test]
fn journal_ring_evicts_oldest_and_counts_drops() {
    let registry = Registry::new();
    let journal = registry.journal();
    journal.set_capacity(4);
    for i in 0..10u64 {
        journal.record(jtobs::EventKind::InstantBegin { instant: i });
    }
    if jtobs::ENABLED {
        assert_eq!(journal.capacity(), 4);
        assert_eq!(journal.len(), 4);
        assert_eq!(journal.dropped(), 6);
        let events = journal.events();
        // Only the newest four survive, in order, with global seqs.
        let instants: Vec<u64> = events
            .iter()
            .map(|e| match e.kind {
                jtobs::EventKind::InstantBegin { instant } => instant,
                ref other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(instants, [6, 7, 8, 9]);
        assert_eq!(events[0].seq, 6);
        let tail = journal.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].seq, 8);
        // Timestamps are monotone within the ring.
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        journal.clear();
        assert_eq!(journal.len(), 0);
        assert_eq!(journal.dropped(), 0);
    } else {
        assert_eq!(journal.len(), 0);
        assert!(journal.events().is_empty());
        assert!(journal.tail(2).is_empty());
    }
}

#[test]
fn journal_jsonl_round_trips_and_flags_classes() {
    let registry = Registry::new();
    let journal = registry.journal();
    journal.record(jtobs::EventKind::BlockEval {
        block: 3,
        name: "clamp \"odd\"".to_string(),
        dur_ns: 125,
    });
    journal.record(jtobs::EventKind::ParallelLevel {
        level: 1,
        workers: 8,
        steals: 2,
    });
    journal.record(jtobs::EventKind::DeadlineOverrun {
        scope: "asr.instant".to_string(),
        measured_ns: 2_000_000,
        bound_ns: 1_000_000,
    });
    let jsonl = journal.to_jsonl();
    if !jtobs::ENABLED {
        assert!(jsonl.is_empty());
        return;
    }
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), 3);
    let classes: Vec<String> = lines
        .iter()
        .map(|l| {
            let v = Json::parse(l).expect("journal line must be valid JSON");
            v.get("class").and_then(Json::as_str).expect("class").to_string()
        })
        .collect();
    assert_eq!(classes, ["sem", "sched", "timing"]);
    // The quoted block name survives JSON escaping.
    let first = Json::parse(lines[0]).unwrap();
    assert_eq!(first.get("name").and_then(Json::as_str), Some("clamp \"odd\""));
    // Canonical forms carry stable fields only: no timing, no seq.
    let canon = journal.events()[0].kind.canonical();
    assert!(canon.contains("block_eval"), "{canon}");
    assert!(!canon.contains("dur_ns"), "{canon}");
}

#[cfg(not(feature = "telemetry"))]
#[test]
fn disabled_journal_is_a_zst() {
    assert_eq!(std::mem::size_of::<jtobs::Journal>(), 0);
    assert_eq!(std::mem::size_of::<jtobs::Registry>(), 0);
}

#[test]
fn report_lists_every_metric_kind() {
    let registry = Registry::new();
    registry.counter("asr.instants").add(7);
    registry.gauge("queue.depth").set(2);
    registry.histogram("ns").record(1500);
    let text = registry.report();
    if jtobs::ENABLED {
        assert!(text.contains("asr.instants"), "{text}");
        assert!(text.contains('7'), "{text}");
        assert!(text.contains("queue.depth"), "{text}");
        assert!(text.contains("ns"), "{text}");
    } else {
        assert!(text.contains("disabled"), "{text}");
    }
}

#[test]
fn chrome_trace_of_empty_registry_parses() {
    let registry = Registry::new();
    let json = registry.chrome_trace_json();
    let value = Json::parse(&json).expect("empty trace must be valid JSON");
    assert_eq!(value.get("traceEvents").and_then(Json::as_array).unwrap().len(), 0);
}

/// Replays `script` (span depth deltas) against a registry: positive =
/// open a span, zero/negative = close the innermost open one. Returns
/// how many spans were opened in total.
fn run_span_script(registry: &Registry, script: &[(bool, u8)]) -> usize {
    let mut open: Vec<jtobs::Span> = Vec::new();
    let mut opened = 0;
    for &(push, name) in script {
        if push || open.is_empty() {
            open.push(registry.span(&format!("s{}", name % 5)));
            opened += 1;
        } else {
            open.pop();
        }
    }
    // Close leftovers innermost-first; a plain Vec drop would close them
    // in FIFO order and (correctly) fail the nesting check.
    while open.pop().is_some() {}
    opened
}

proptest! {
    #[test]
    fn chrome_trace_is_well_formed_json_with_nested_events(
        script in proptest::collection::vec((any::<bool>(), any::<u8>()), 40)
    ) {
        let registry = Registry::new();
        let opened = run_span_script(&registry, &script);

        let json = registry.chrome_trace_json();
        let value = match Json::parse(&json) {
            Ok(v) => v,
            Err(e) => return Err(TestCaseError::fail(format!("bad JSON: {e}\n{json}"))),
        };
        let events = value
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        if !jtobs::ENABLED {
            prop_assert!(events.is_empty());
            return Ok(());
        }
        prop_assert_eq!(events.len(), opened * 2, "one B and one E per span");

        // Per-tid stack discipline: every E closes the most recent
        // unmatched B of the same name, and nothing is left open.
        let mut stacks: std::collections::BTreeMap<i64, Vec<String>> =
            std::collections::BTreeMap::new();
        let mut last_ts = f64::MIN;
        for e in events {
            let name = e.get("name").and_then(Json::as_str).expect("name").to_string();
            let phase = e.get("ph").and_then(Json::as_str).expect("ph");
            let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
            let tid = e.get("tid").and_then(Json::as_i64).expect("tid");
            prop_assert_eq!(e.get("pid").and_then(Json::as_i64), Some(1));
            prop_assert!(ts >= last_ts, "events are time-ordered");
            last_ts = ts;
            let stack = stacks.entry(tid).or_default();
            match phase {
                "B" => stack.push(name),
                "E" => {
                    let open = stack.pop();
                    prop_assert_eq!(open, Some(name), "E must close the innermost B");
                }
                other => return Err(TestCaseError::fail(format!("unexpected phase {other}"))),
            }
        }
        for (tid, stack) in stacks {
            prop_assert!(stack.is_empty(), "tid {} left spans open: {:?}", tid, stack);
        }
    }
}
