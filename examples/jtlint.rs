//! `jtlint` — span-accurate policy diagnostics over the JT corpus.
//!
//! Runs the full ASR policy of use (syntactic rules R1–R9, the
//! flow-sensitive R10–R12, and the interprocedural R13–R14) over every
//! built-in corpus program and prints each violation as a rustc-style
//! diagnostic: header, file/line/column pointer, the offending source
//! line with a caret underline, and the suggested fix — followed by a
//! per-sample table and a per-rule violation total line.
//!
//! ```text
//! cargo run --example jtlint            # print all diagnostics
//! cargo run --example jtlint -- --check # CI gate: verify the snapshot
//! cargo run --example jtlint -- --json  # one JSON object per finding
//! cargo run --example jtlint -- --precision # k=0 vs k=1 refinement gate
//! ```
//!
//! `--check` compares the per-sample violation counts against the
//! baked-in snapshot below and exits nonzero on any internal error
//! (front-end rejection of a corpus sample, analysis panic) or any
//! diagnostic regression (count drift in either direction). Update the
//! snapshot deliberately when the policy or the corpus changes.
//!
//! `--json` emits machine-readable findings instead of the rustc-style
//! text: one JSON object per line with `file`, `rule`, `rule_title`,
//! `class`, `message`, `span`, `fix`, and — for the proof-carrying
//! rules R2, R12, R13, and R14 — a structured `evidence` object
//! carrying the machine-checkable derivation behind the verdict
//! (`jtanalysis::evidence`). Pipe the output through the
//! `evidence_verify` example to re-validate every derivation against
//! the source without re-running the solvers.
//!
//! `--precision` runs the interprocedural tier at both context depths
//! (`k = 0`, the context-insensitive baseline, and `k = 1`, the
//! object-sensitive default) over every sample and exits nonzero
//! unless (a) the `k = 1` findings are a subset of the `k = 0`
//! findings on every sample, (b) every compliant sample is clean at
//! `k = 1`, and (c) `factory_blocks` demonstrates the sharpening: R13
//! false positives at `k = 0`, none at `k = 1`.
//!
//! `--stats` routes every sample through one shared incremental
//! analysis database (`jtanalysis::db::AnalysisDb`) and prints its
//! two-line rollup (`jtanalysis::db::render_rollup`) after the
//! per-sample table: the cache line splits method-core from points-to
//! traffic, and the tail-traffic line reports delta-solver constraint
//! retraction/derivation counts and demand-query totals.
//!
//! `--warm-check` lints every sample through a fresh database three
//! times — byte-identical, byte-identical again, then shifted by a
//! leading comment — and exits nonzero unless (a) the second run
//! replays with zero method-level recomputation and zero SCC misses
//! and reproduces the first run's findings exactly, and (b) the
//! comment-shifted run (a no-op revision that misses the replay cache)
//! keeps the entire analysis tail warm: no points-to re-solve, zero
//! constraints retracted or re-derived by the delta solver, and zero
//! demand-query misses. This is the CI guard for both the "warm
//! re-check is free" contract and the delta/demand tail.

use jtanalysis::db::AnalysisDb;
use sfr::policy::{evidence_for, AnalysisContext, Policy};
use sfr::violation::{render, render_json_object, Violation};

/// Expected violation count per corpus sample under `Policy::asr()`.
const SNAPSHOT: [(&str, usize); 14] = [
    ("counter", 0),
    ("fir_filter", 0),
    ("traffic_light", 0),
    ("elevator", 0),
    ("unrestricted_avg", 4),
    ("linked_queue", 5),
    ("racy_threads", 19),
    ("recursive_blocking", 2),
    ("unassigned_latch", 1),
    ("pure_blocks", 0),
    ("aliased_shared", 17),
    ("impure_block", 4),
    ("factory_blocks", 0),
    ("builder_alias", 3),
];

/// Every rule the ASR policy can emit, in report order.
const RULES: [&str; 14] = [
    "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10", "R11", "R12", "R13", "R14",
];

/// Lints one sample, pairing each violation with the rendered JSON of
/// its structured evidence (present exactly for the proof-carrying
/// rules R2/R12/R13/R14).
fn lint(
    source: &str,
    db: Option<&mut AnalysisDb>,
) -> Result<Vec<(Violation, Option<String>)>, String> {
    let program = jtlang::check_source(source).map_err(|e| format!("front end: {e}"))?;
    let table =
        jtlang::resolve::resolve(&program).map_err(|e| format!("resolver: {e}"))?;
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let cx = match db {
            Some(db) => AnalysisContext::with_db(&program, &table, db, None),
            None => AnalysisContext::new(&program, &table),
        };
        Policy::asr()
            .check_with_context(&cx)
            .into_iter()
            .map(|v| {
                let e = evidence_for(&cx.flow, &v).map(|e| e.to_json().render());
                (v, e)
            })
            .collect()
    }))
    .map_err(|_| "analysis panicked (internal error)".to_string())
}

/// Prefixes `render_json_object` output with the originating `file` so
/// each line is self-contained. The rendered object always starts with
/// `{"rule":…`, so splicing after the brace is safe.
fn json_line(file: &str, v: &Violation, evidence: Option<&str>) -> String {
    let body = render_json_object(v, evidence);
    let mut out = String::from("{\"file\":");
    jtobs::json::write_str(file, &mut out);
    out.push(',');
    out.push_str(&body[1..]);
    out
}

/// The `--precision` gate: interprocedural findings at `k = 1` must be
/// a subset of `k = 0` on every sample, compliant samples must be
/// clean at the default depth, and `factory_blocks` must show the
/// advertised sharpening. Returns the number of failures.
fn precision_check() -> usize {
    let mut failures = 0usize;
    println!("{:<20} {:>6} {:>6}", "sample", "k=0", "k=1");
    for sample in jtlang::corpus::samples() {
        let Ok((p, t)) = jtanalysis::frontend(sample.source) else {
            eprintln!("jtlint: `{}` failed the front end", sample.name);
            failures += 1;
            continue;
        };
        let g = jtanalysis::callgraph::build(&p, &t);
        let keys = |k: usize| {
            let r = jtanalysis::flow::analyze_batch_k(&p, &t, &g, k);
            let mut set: std::collections::BTreeSet<String> = r
                .summary
                .impure_blocks
                .iter()
                .map(|f| format!("R13 {} {} {} {}..{}", f.block, f.field, f.method, f.span.start, f.span.end))
                .collect();
            set.extend(
                r.summary
                    .alias_leaks
                    .iter()
                    .map(|l| format!("R14 {}.{} {}", l.class, l.method, l.field)),
            );
            set.extend(r.races.alias_aware.iter().map(|a| format!("R12 {}", a.field)));
            set
        };
        let (k0, k1) = (keys(0), keys(1));
        println!("{:<20} {:>6} {:>6}", sample.name, k0.len(), k1.len());
        for extra in k1.difference(&k0) {
            eprintln!(
                "jtlint: `{}` finding at k=1 absent at k=0 (refinement violated): {extra}",
                sample.name
            );
            failures += 1;
        }
        if sample.compliant && !k1.is_empty() {
            eprintln!(
                "jtlint: compliant `{}` has {} interprocedural finding(s) at k=1",
                sample.name,
                k1.len()
            );
            failures += 1;
        }
        if sample.name == "factory_blocks" && (k0.is_empty() || !k1.is_empty()) {
            eprintln!(
                "jtlint: `factory_blocks` no longer demonstrates the k=0 -> k=1 \
                 sharpening ({} at k=0, {} at k=1)",
                k0.len(),
                k1.len()
            );
            failures += 1;
        }
    }
    failures
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let json = std::env::args().any(|a| a == "--json");
    let stats = std::env::args().any(|a| a == "--stats");
    let warm_check = std::env::args().any(|a| a == "--warm-check");
    let precision = std::env::args().any(|a| a == "--precision");
    let mut internal_errors = 0usize;
    let mut regressions = 0usize;
    let mut warm_failures = 0usize;
    let mut precision_failures = 0usize;
    let mut counts: Vec<(String, usize)> = Vec::new();
    let mut per_rule: std::collections::BTreeMap<String, usize> =
        std::collections::BTreeMap::new();
    let mut shared_db = AnalysisDb::new();

    for sample in jtlang::corpus::samples() {
        let file = format!("{}.jt", sample.name);
        if warm_check {
            let mut db = AnalysisDb::new();
            let outcome = lint(sample.source, Some(&mut db)).and_then(|first| {
                lint(sample.source, Some(&mut db)).map(|second| (first, second))
            });
            match outcome {
                Ok((first, second)) => {
                    let s = db.last_run();
                    if s.recomputed != 0 || s.scc_misses != 0 {
                        eprintln!(
                            "jtlint: `{}` warm re-check recomputed {} method-level \
                             queries and {} SCC summaries (expected 0)",
                            sample.name, s.recomputed, s.scc_misses
                        );
                        warm_failures += 1;
                    }
                    if first != second {
                        eprintln!("jtlint: `{}` warm re-check changed the findings", sample.name);
                        warm_failures += 1;
                    }
                    // A comment shifts every span, so this is a fresh
                    // revision (the replay cache misses) whose analysis
                    // tail must still be served entirely warm.
                    let shifted = format!("// warm-check pad\n{}", sample.source);
                    match lint(&shifted, Some(&mut db)) {
                        Ok(third) => {
                            let s = db.last_run();
                            if s.recomputed != 0
                                || s.scc_misses != 0
                                || s.pointsto_misses != 0
                                || s.pt_constraints_retracted != 0
                                || s.pt_constraints_added != 0
                                || s.demand_misses != 0
                            {
                                eprintln!(
                                    "jtlint: `{}` no-op revision re-ran the tail: \
                                     {} recomputed, {} scc misses, {} points-to \
                                     misses, {} constraints retracted, {} added, \
                                     {} demand misses (expected all 0)",
                                    sample.name,
                                    s.recomputed,
                                    s.scc_misses,
                                    s.pointsto_misses,
                                    s.pt_constraints_retracted,
                                    s.pt_constraints_added,
                                    s.demand_misses
                                );
                                warm_failures += 1;
                            }
                            if third.len() != first.len() {
                                eprintln!(
                                    "jtlint: `{}` no-op revision changed the finding \
                                     count ({} vs {})",
                                    sample.name,
                                    third.len(),
                                    first.len()
                                );
                                warm_failures += 1;
                            }
                        }
                        Err(e) => {
                            eprintln!("jtlint: internal error on `{}`: {e}", sample.name);
                            internal_errors += 1;
                        }
                    }
                }
                Err(e) => {
                    eprintln!("jtlint: internal error on `{}`: {e}", sample.name);
                    internal_errors += 1;
                }
            }
        }
        let result = lint(sample.source, stats.then_some(&mut shared_db));
        match result {
            Ok(violations) => {
                if json {
                    for (v, evidence) in &violations {
                        println!("{}", json_line(&file, v, evidence.as_deref()));
                    }
                } else if !check {
                    for (v, _) in &violations {
                        print!("{}", render(v, &file, sample.source));
                        println!();
                    }
                }
                for (v, _) in &violations {
                    *per_rule.entry(v.rule.to_string()).or_insert(0) += 1;
                }
                counts.push((sample.name.to_string(), violations.len()));
            }
            Err(e) => {
                eprintln!("jtlint: internal error on `{}`: {e}", sample.name);
                internal_errors += 1;
            }
        }
    }

    if !json {
        println!("{:<20} {:>10}", "sample", "violations");
        for (name, n) in &counts {
            println!("{name:<20} {n:>10}");
        }
        let totals: Vec<String> = RULES
            .iter()
            .map(|r| format!("{r}={}", per_rule.get(*r).copied().unwrap_or(0)))
            .collect();
        println!("rule totals: {}", totals.join(" "));
    }

    if stats {
        let t = shared_db.totals();
        println!("{}", jtanalysis::db::render_rollup(&t, shared_db.revision()));
    }
    if warm_check && internal_errors == 0 && warm_failures == 0 {
        println!(
            "jtlint --warm-check: warm replay and no-op-revision tail both clean \
             on all {} samples",
            jtlang::corpus::samples().len()
        );
    }

    if precision {
        precision_failures = precision_check();
        if precision_failures == 0 {
            println!(
                "jtlint --precision: k=1 refines k=0 on all {} samples; compliant \
                 samples clean at the default depth",
                jtlang::corpus::samples().len()
            );
        }
    }

    if check {
        for (name, expected) in SNAPSHOT {
            match counts.iter().find(|(n, _)| n == name) {
                Some((_, actual)) if *actual == expected => {}
                Some((_, actual)) => {
                    eprintln!(
                        "jtlint: `{name}` expected {expected} violations, found {actual}"
                    );
                    regressions += 1;
                }
                None => {
                    eprintln!("jtlint: snapshot sample `{name}` missing from corpus");
                    regressions += 1;
                }
            }
        }
        for (name, _) in &counts {
            if !SNAPSHOT.iter().any(|(n, _)| n == name) {
                eprintln!("jtlint: corpus sample `{name}` missing from snapshot");
                regressions += 1;
            }
        }
        if internal_errors == 0 && regressions == 0 {
            println!("jtlint --check: snapshot clean ({} samples)", counts.len());
        }
    }

    if internal_errors > 0 || regressions > 0 || warm_failures > 0 || precision_failures > 0 {
        std::process::exit(1);
    }
}
