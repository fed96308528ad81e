//! Properties of the context-sensitive points-to tier and its
//! proof-carrying evidence.
//!
//! Two contracts are under test. **Refinement**: the object-sensitive
//! relation at `k = 1` only sharpens the context-insensitive `k = 0`
//! tier — projecting contexts away yields a sub-relation, and no
//! interprocedural finding appears at `k = 1` that `k = 0` misses.
//! **Checkability**: every `Evidence` value the analyses emit —
//! finding and cleared alike — survives a JSON round trip and is
//! accepted by the independent `evidence::verify` re-validation pass,
//! which re-walks the source without re-running any solver.

use jtanalysis::evidence::{self, Evidence};
use jtanalysis::flow::FlowReport;
use jtanalysis::{callgraph, flow, frontend};
use jtobs::json::Json;
use jtlang::corpus::{self, GenConfig};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn setup(src: &str) -> (jtlang::ast::Program, jtlang::resolve::ClassTable, callgraph::CallGraph) {
    let (p, t) = frontend(src).expect("source is frontend-clean");
    let g = callgraph::build(&p, &t);
    (p, t, g)
}

/// Stable keys for the interprocedural findings (R12/R13/R14) of a run.
fn finding_keys(r: &FlowReport) -> BTreeSet<String> {
    let mut set: BTreeSet<String> = r
        .summary
        .impure_blocks
        .iter()
        .map(|f| format!("R13 {} {} {}", f.block, f.field, f.method))
        .collect();
    set.extend(
        r.summary
            .alias_leaks
            .iter()
            .map(|l| format!("R14 {}.{} {}", l.class, l.method, l.field)),
    );
    set.extend(r.races.alias_aware.iter().map(|a| format!("R12 {}", a.field)));
    set
}

/// All evidence emitted by a run: the summary engine's R2/R13/R14
/// entries plus the race tier's R12 entries.
fn all_evidence(r: &FlowReport) -> Vec<&Evidence> {
    r.summary.evidence.iter().chain(r.races.evidence.iter()).collect()
}

/// Checks both contracts on one program: `k = 1` refines `k = 0` (site
/// projection of the reachability relation is a sub-relation, findings
/// are a subset), and every evidence entry round-trips and verifies.
fn check_program(src: &str, name: &str) {
    let (p, t, g) = setup(src);
    let k0 = flow::analyze_batch_k(&p, &t, &g, 0);
    let k1 = flow::analyze_batch_k(&p, &t, &g, 1);

    // Findings may only disappear when contexts sharpen the relation.
    let (f0, f1) = (finding_keys(&k0), finding_keys(&k1));
    assert!(
        f1.is_subset(&f0),
        "`{name}`: findings at k=1 missing at k=0: {:?}",
        f1.difference(&f0).collect::<Vec<_>>()
    );

    // Projecting contexts away maps every k=1 object onto a k=0 object
    // with the same fingerprint-stable site, and every k=1 heap-reach
    // fact onto a k=0 one.
    let pt0 = &k0.summary.pointsto;
    let pt1 = &k1.summary.pointsto;
    let mut proj = BTreeMap::new();
    for o1 in pt1.objects() {
        let o0 = pt0
            .objects()
            .find(|o0| o0.site == o1.site)
            .unwrap_or_else(|| panic!("`{name}`: k=1 site {} has no k=0 object", o1.site));
        assert_eq!(o0.class, o1.class, "`{name}`: projected class drifts");
        proj.insert(o1.id, o0.id);
    }
    for o1 in pt1.objects() {
        let from0 = proj[&o1.id];
        let reach0 = pt0.reachable(from0);
        for r1 in pt1.reachable(o1.id) {
            assert!(
                reach0.contains(&proj[&r1]),
                "`{name}`: k=1 reach fact {} -> {} has no k=0 projection",
                o1.id.0,
                r1.0
            );
        }
    }

    // Every emitted derivation — finding and cleared — verifies, and
    // survives an exact JSON round trip.
    for r in [&k0, &k1] {
        let failures = evidence::verify_all(&p, &t, all_evidence(r));
        assert!(failures.is_empty(), "`{name}`: {failures:?}");
        for e in all_evidence(r) {
            let rendered = e.to_json().render();
            let back = Evidence::from_json(&Json::parse(&rendered).unwrap()).unwrap();
            assert_eq!(&back, e, "`{name}`: JSON round trip drifts");
        }
    }
}

#[test]
fn corpus_samples_refine_and_verify() {
    for s in corpus::samples() {
        check_program(s.source, s.name);
    }
}

#[test]
fn factory_blocks_is_sharpened_and_builder_alias_is_not() {
    let (p, t, g) = setup(corpus::FACTORY_BLOCKS);
    let k0 = flow::analyze_batch_k(&p, &t, &g, 0);
    let k1 = flow::analyze_batch_k(&p, &t, &g, 1);
    assert_eq!(k0.summary.impure_blocks.len(), 2, "k=0 merges the pool packets");
    assert!(k1.summary.impure_blocks.is_empty(), "k=1 separates them");
    // The spurious k=0 findings still carry verifiable evidence: the
    // checker validates derivations, not policy truth.
    let failures = evidence::verify_all(&p, &t, all_evidence(&k0));
    assert!(failures.is_empty(), "{failures:?}");

    let (p, t, g) = setup(corpus::BUILDER_ALIAS);
    let k1 = flow::analyze_batch_k(&p, &t, &g, 1);
    assert_eq!(k1.summary.impure_blocks.len(), 2, "true aliases survive k=1");
    assert_eq!(k1.summary.alias_leaks.len(), 1);
}

#[test]
fn loop_bound_evidence_covers_finding_and_both_clearings() {
    // `sumTo`'s loop is opaque to the syntactic and interval tiers but
    // proved from its two constant call sites (CallSites / Cleared);
    // `free`'s loop has an unprovable open limit (Unproved / Finding);
    // `fixed`'s loop is interval-proved (Interval / Cleared).
    let src = "class M {
        int sumTo(int n) {
            int s = 0;
            for (int i = 0; i < n; i = i + 1) { s = s + 1; }
            return s;
        }
        int free(int n) {
            int s = 0;
            for (int i = 0; i < n; i = i + 2) { s = s + 1; }
            return s;
        }
        int fixed() {
            int n = 8;
            int s = 0;
            for (int i = 0; i < n; i++) { s = s + 1; }
            return s;
        }
        int a() { return sumTo(10); }
        int b() { return sumTo(20); }
    }";
    let (p, t, g) = setup(src);
    let r = flow::analyze_batch(&p, &t, &g);
    let kinds: Vec<String> = r
        .summary
        .evidence
        .iter()
        .filter_map(|e| match e {
            Evidence::LoopBound {
                verdict,
                method,
                derivation,
                ..
            } => Some(format!(
                "{method} {:?} {}",
                verdict,
                match derivation {
                    evidence::BoundDerivation::Interval { trips } => format!("interval {trips}"),
                    evidence::BoundDerivation::CallSites { trips, sites, .. } =>
                        format!("call-sites {trips} from {}", sites.len()),
                    evidence::BoundDerivation::Unproved { .. } => "unproved".to_string(),
                }
            )),
            _ => None,
        })
        .collect();
    assert!(
        kinds.contains(&"M.sumTo Cleared call-sites 20 from 2".to_string()),
        "{kinds:?}"
    );
    assert!(kinds.contains(&"M.free Finding unproved".to_string()), "{kinds:?}");
    assert!(kinds.contains(&"M.fixed Cleared interval 8".to_string()), "{kinds:?}");
    // `sumTo` carries *both*: the call-site proof certifies its WCET
    // bound (Cleared), while R2 still reports the unprovable shape —
    // the Unproved entry is that finding's derivation.
    assert!(kinds.contains(&"M.sumTo Finding unproved".to_string()), "{kinds:?}");
    let failures = evidence::verify_all(&p, &t, r.summary.evidence.iter());
    assert!(failures.is_empty(), "{failures:?}");
}

#[test]
fn tampered_evidence_is_rejected() {
    let (p, t, g) = setup(corpus::BUILDER_ALIAS);
    let r = flow::analyze_batch(&p, &t, &g);
    let genuine = r
        .summary
        .evidence
        .iter()
        .find(|e| matches!(e, Evidence::Ownership { verdict: evidence::Verdict::Finding, .. }))
        .expect("builder_alias has an R13 finding");
    // Re-aim the write span at a different byte range: the cited access
    // no longer exists and the checker must refuse.
    let mut j = genuine.to_json().render();
    let Evidence::Ownership { write, .. } = genuine else { unreachable!() };
    j = j.replace(
        &format!("\"span\":[{},{}]", write.span.start, write.span.end),
        &format!("\"span\":[{},{}]", write.span.start + 1, write.span.end + 1),
    );
    let tampered = Evidence::from_json(&Json::parse(&j).unwrap()).unwrap();
    assert!(evidence::verify(&p, &t, &tampered).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random generated corpora: the refinement and checkability
    /// contracts hold beyond the hand-written samples.
    #[test]
    fn generated_corpora_refine_and_verify(
        classes in 2usize..4,
        methods_per_class in 2usize..5,
        seed in any::<u64>(),
    ) {
        let cfg = GenConfig { classes, methods_per_class, seed };
        check_program(&corpus::generate(&cfg), "generated");
    }
}
