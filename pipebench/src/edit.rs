//! `edit-recheck`: the designer's analyze/modify loop (paper Fig. 2).
//!
//! A seeded 1024-method `jtlang::corpus` program sits in a
//! `RefinementSession` under `Policy::asr()`. One op replaces the source
//! with a one-method edit and re-checks it. The edits walk a seeded
//! cycle: `SLOTS` distinct methods are edited one after another (most by
//! a constant tweak, a fixed minority by adding a call or an
//! allocation), then reverted in the same order, so a revision recurs
//! only every `2 * SLOTS` ops — long after the db has evicted its
//! entries (it keeps entries 4 revisions) — and every op pays for a
//! real edit. The cycle keeps verification bounded: each distinct
//! revision is checked cold and its evidence re-verified once, however
//! many ops a run makes.

use crate::replica::{self, Checked};
use crate::trace::Tracer;
use crate::{peak_rss_mb, timed_setups, Config, Fault, LayerMetrics, Loop, Rng, RunResult};
use jtanalysis::db::{AnalysisDb, RunStats};
use jtlang::corpus::{self, GenConfig};
use sfr::policy::Policy;
use sfr::session::RefinementSession;
use sfr::violation::Violation;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Methods edited per cycle (a cycle is twice as many ops).
const SLOTS: usize = 10;
/// The body-shape edits among them. The mix is fixed because an
/// allocation costs more to re-check than a call; left to the seed, it
/// would move `latency_p90_ms` from seed to seed.
const SHAPES: [ShapeKind; 3] = [ShapeKind::Alloc, ShapeKind::Alloc, ShapeKind::Call];
/// Set-ups per untraced run (each ~0.2 s).
const SETUPS: usize = 5;
/// Untimed ops before the timed phase.
const WARMUP: usize = 4;

/// A body-shape edit: one line added at the top of a method body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// `acc = acc + m<k>(n);` — a new same-class call (to a later
    /// method, so the call graph stays acyclic).
    Call(usize),
    /// `G<c> fresh = new G<c>();` — a new allocation site.
    Alloc,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShapeKind {
    Call,
    Alloc,
}

/// One slot of the edit cycle.
#[derive(Debug, Clone, Copy)]
enum Edit {
    /// Replace method `g`'s embedded constant.
    Constant { g: usize, value: i64 },
    /// Add a line to method `g`'s body.
    Shape { g: usize, shape: Shape },
}

/// The seeded program and edit cycle.
struct Script {
    gen: GenConfig,
    slots: Vec<Edit>,
}

impl Script {
    fn new(seed: u64, smoke: bool) -> Script {
        let (classes, methods, slots, shapes) = if smoke {
            (4, 4, 6, &SHAPES[1..])
        } else {
            (32, 32, SLOTS, &SHAPES[..])
        };
        let gen = GenConfig {
            classes,
            methods_per_class: methods,
            seed: Rng::new(seed, 1).next_u64(),
        };
        let mut rng = Rng::new(seed, 2);
        let mut picked: Vec<usize> = Vec::new();
        // A distinct method; a call needs a later method in its class.
        let mut pick = |rng: &mut Rng, call: bool| loop {
            let g = rng.below((classes * methods) as u64) as usize;
            let last_in_class = g % methods + 1 == methods;
            let usable = !(call && last_in_class);
            if usable && !picked.contains(&g) {
                picked.push(g);
                return g;
            }
        };
        let mut edits: Vec<Edit> = shapes
            .iter()
            .map(|&kind| {
                let g = pick(&mut rng, kind == ShapeKind::Call);
                let shape = match kind {
                    ShapeKind::Alloc => Shape::Alloc,
                    ShapeKind::Call => {
                        let m = (g % methods) as i64;
                        Shape::Call(rng.range(m + 1, methods as i64 - 1) as usize)
                    }
                };
                Edit::Shape { g, shape }
            })
            .collect();
        while edits.len() < slots {
            let g = pick(&mut rng, false);
            edits.push(Edit::Constant {
                g,
                value: rng.range(100, 999),
            });
        }
        // Seeded order.
        for i in (1..edits.len()).rev() {
            edits.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let slots = edits;
        Script { gen, slots }
    }

    /// Ops per cycle; revision `r` (0-based) is the state after op `r`
    /// of a cycle, and the last one is the unedited program.
    fn cycle(&self) -> usize {
        2 * self.slots.len()
    }

    /// The edit applied by op `r` of a cycle is constant-only.
    fn is_constant(&self, r: usize) -> bool {
        matches!(self.slots[r % self.slots.len()], Edit::Constant { .. })
    }

    /// Source text of revision `r`: slots `0..=r` applied for the first
    /// half of the cycle, then reverted in order.
    fn source(&self, r: usize) -> String {
        let k = self.slots.len();
        let applied = if r < k { 0..r + 1 } else { r + 1 - k..k };
        let mut tweaks = BTreeMap::new();
        let mut shapes = BTreeMap::new();
        for edit in &self.slots[applied] {
            match *edit {
                Edit::Constant { g, value } => {
                    tweaks.insert(g, value);
                }
                Edit::Shape { g, shape } => {
                    shapes.insert(g, shape);
                }
            }
        }
        let text = corpus::generate_with_tweaks(&self.gen, &tweaks);
        if shapes.is_empty() {
            return text;
        }
        let methods = self.gen.methods_per_class;
        let mut out = String::with_capacity(text.len() + 64 * shapes.len());
        let mut class = 0;
        for line in text.lines() {
            out.push_str(line);
            out.push('\n');
            if let Some(rest) = line.strip_prefix("class G") {
                class = rest
                    .split(' ')
                    .next()
                    .and_then(|c| c.parse().ok())
                    .unwrap_or(0);
            }
            let Some(m) = line
                .strip_prefix("    int m")
                .and_then(|rest| rest.strip_suffix("(int n) {"))
                .and_then(|m| m.parse::<usize>().ok())
            else {
                continue;
            };
            match shapes.get(&(class * methods + m)) {
                Some(Shape::Call(k)) => out.push_str(&format!("        acc = acc + m{k}(n);\n")),
                Some(Shape::Alloc) => {
                    out.push_str(&format!("        G{class} fresh = new G{class}();\n"))
                }
                None => {}
            }
        }
        out
    }
}

/// What one op saw.
struct OpRecord {
    revision: usize,
    timed: bool,
    verdict: Result<Verdict, String>,
}

/// A policy verdict, reduced to what the checks compare.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Verdict {
    digest: u64,
    by_rule: BTreeMap<&'static str, usize>,
}

impl Verdict {
    fn of(violations: &[Violation]) -> Verdict {
        let mut h = DefaultHasher::new();
        let mut by_rule = BTreeMap::new();
        for v in violations {
            (v.rule, v.span.start, v.span.end, &v.message, &v.class).hash(&mut h);
            *by_rule.entry(v.rule).or_insert(0) += 1;
        }
        Verdict {
            digest: h.finish(),
            by_rule,
        }
    }
}

/// Runs the workload.
///
/// # Errors
///
/// When the generated program cannot be loaded into a session.
pub fn run(cfg: &Config) -> Result<RunResult, String> {
    let script = Script::new(cfg.seed, cfg.smoke);
    let mut tracer = Tracer::new(cfg.trace);
    let ((mut session, base, initial), setup_s) = timed_setups(cfg, SETUPS, &mut tracer, |_| {
        let base = script.source(script.cycle() - 1);
        let session =
            RefinementSession::from_source(&base, Policy::asr()).map_err(|e| e.to_string())?;
        let initial = Verdict::of(&session.check());
        Ok((session, base, initial))
    })?;

    // The traced run mirrors every op through the replica on its own db,
    // so each layer's share of the op gets its own span.
    let mut shadow = cfg.trace.then(AnalysisDb::new);
    if let Some(db) = shadow.as_mut() {
        replica::check(&mut tracer, &base, db, "jtanalysis.db.cold_analyze")?;
    }

    let mut ops: Vec<OpRecord> = Vec::new();
    let mut stats: Vec<RunStats> = Vec::new();
    let mut source_bytes = 0usize;
    let mut lp = Loop::default();
    let mut i = 0usize;
    while i < WARMUP || lp.more(cfg, 2 * script.cycle() + 1) {
        let revision = i % script.cycle();
        let source = script.source(revision);
        let timed = i >= WARMUP;
        // Whole cycles alternate between traced and untraced, so both
        // halves see the same edits.
        let traced = cfg.trace && (i / script.cycle()).is_multiple_of(2);
        tracer.set_recording(traced);
        tracer.set_op(Some(i as u64));
        let mut op = |t: &mut Tracer| {
            t.span("op", |t| {
                t.span("sfr.session.replace_source", |_| {
                    session.replace_source(&source)
                })
                .map_err(|e| e.to_string())?;
                Ok(t.span("sfr.session.check", |_| session.check()))
            })
        };
        let verdict = if timed {
            lp.time(traced, || op(&mut tracer))
        } else {
            op(&mut tracer)
        };
        if timed && traced {
            stats.push(session.db_stats().0);
            source_bytes += source.len();
        }
        if let Some(db) = shadow.as_mut() {
            replica::check(&mut tracer, &source, db, "jtanalysis.db.analyze")?;
        }
        ops.push(OpRecord {
            revision,
            timed,
            verdict: verdict.map(|v: Vec<Violation>| Verdict::of(&v)),
        });
        i += 1;
    }
    let peak = peak_rss_mb();

    let mut out = RunResult {
        correct: true,
        ..RunResult::default()
    };
    verify(&script, &ops, &initial, &mut out);
    if cfg.trace {
        let mut m = LayerMetrics::default();
        m.set_spans(
            &tracer,
            &[
                ("jtlang.parse_ms", "jtlang.parse"),
                ("jtlang.resolve_ms", "jtlang.resolve"),
                ("jtlang.typecheck_ms", "jtlang.typecheck"),
                ("jtanalysis.callgraph_ms", "jtanalysis.callgraph"),
                ("jtanalysis.db.analyze_ms", "jtanalysis.db.analyze"),
                (
                    "jtanalysis.db.cold_analyze_ms",
                    "jtanalysis.db.cold_analyze",
                ),
                ("sfr.policy.analyses_ms", "sfr.policy.analyses"),
                ("sfr.policy.rules_ms", "sfr.policy.rules"),
                (
                    "sfr.session.replace_source_ms",
                    "sfr.session.replace_source",
                ),
                ("sfr.session.check_ms", "sfr.session.check"),
            ],
        );
        let n = stats.len().max(1) as f64;
        let mean = |f: &dyn Fn(&RunStats) -> u64| stats.iter().map(f).sum::<u64>() as f64 / n;
        m.set("jtlang.source_kb", source_bytes as f64 / 1024.0 / n);
        m.set("jtanalysis.db.tail_ms", mean(&|s| s.tail_ns) / 1e6);
        m.set("jtanalysis.db.recomputed", mean(&|s| s.recomputed));
        m.set("jtanalysis.db.invalidated", mean(&|s| s.invalidated));
        m.set("jtanalysis.db.scc_misses", mean(&|s| s.scc_misses));
        m.set("jtanalysis.db.demand_misses", mean(&|s| s.demand_misses));
        m.set(
            "jtanalysis.db.pt_constraints_retracted",
            mean(&|s| s.pt_constraints_retracted),
        );
        m.set(
            "jtanalysis.db.pt_constraints_added",
            mean(&|s| s.pt_constraints_added),
        );
        let hits = mean(&|s| s.hits + s.scc_hits + s.pointsto_hits + s.demand_hits);
        let lookups =
            hits + mean(&|s| s.misses + s.scc_misses + s.pointsto_misses + s.demand_misses);
        m.set(
            "jtanalysis.db.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        );
        let violations: usize = ops
            .iter()
            .filter(|o| o.timed)
            .filter_map(|o| o.verdict.as_ref().ok())
            .map(|v| v.by_rule.values().sum::<usize>())
            .sum();
        m.set("sfr.violations", violations as f64 / lp.ops().max(1) as f64);
        lp.overhead(&tracer, &mut m);
        m.finish(&mut out);
        out.trace = tracer
            .chrome_trace_json()
            .map(|c| (c, tracer.ledger_jsonl()));
    } else {
        lp.end_to_end(setup_s, peak, &mut out);
    }
    Ok(out)
}

/// Checks every op outside the timed phase:
/// - its verdict equals a cold `Policy::asr()` check of a fresh parse of
///   the same revision;
/// - every evidence derivation of the revision, as the incremental db
///   derives it, re-verifies with `jtanalysis::evidence::verify_all`;
/// - a constant-only edit leaves the per-rule verdict counts unchanged.
fn verify(script: &Script, ops: &[OpRecord], initial: &Verdict, out: &mut RunResult) {
    // Cold verdict per distinct revision, plus the warm db's evidence,
    // replayed in cycle order from the unedited program.
    let mut replay_db = AnalysisDb::new();
    let mut quiet = Tracer::new(false);
    let base = script.source(script.cycle() - 1);
    let mut expected: Vec<Result<Verdict, String>> = Vec::new();
    if let Err(e) = replica::check(&mut quiet, &base, &mut replay_db, "replay") {
        expected = vec![Err(format!("unedited program: {e}")); script.cycle()];
    }
    let seen = ops.iter().map(|o| o.revision + 1).max().unwrap_or(0);
    for r in expected.len()..seen.min(script.cycle()) {
        let source = script.source(r);
        expected.push(revision_verdict(&mut quiet, &source, &mut replay_db));
    }

    let mut previous = Ok(initial.clone());
    for (i, op) in ops.iter().enumerate() {
        let fault = match (&op.verdict, &expected[op.revision]) {
            (Err(e), _) => Some(Fault::Error(format!("op {i}: session error: {e}"))),
            (_, Err(e)) => Some(Fault::Wrong(format!(
                "op {i}: revision {}: {e}",
                op.revision
            ))),
            (Ok(got), Ok(want)) if got != want => Some(Fault::Wrong(format!(
                "op {i}: revision {} verdict {:?} != cold {:?}",
                op.revision, got.by_rule, want.by_rule
            ))),
            (Ok(got), Ok(_)) => match &previous {
                Ok(prev) if script.is_constant(op.revision) && prev.by_rule != got.by_rule => {
                    Some(Fault::Wrong(format!(
                        "op {i}: constant edit moved rule counts {:?} -> {:?}",
                        prev.by_rule, got.by_rule
                    )))
                }
                _ => None,
            },
        };
        if let Some(fault) = fault {
            out.fault(op.timed, fault);
        }
        out.attempted += u64::from(op.timed);
        previous = op.verdict.clone();
    }
}

/// The cold verdict of `source`, after checking that the warm db's
/// verdict agrees with it and that the warm evidence re-verifies.
fn revision_verdict(
    quiet: &mut Tracer,
    source: &str,
    db: &mut AnalysisDb,
) -> Result<Verdict, String> {
    let warm: Checked = replica::check(quiet, source, db, "replay")?;
    let fresh = jtlang::check_source(source)?;
    let fresh_table = jtlang::resolve::resolve(&fresh).map_err(|e| e.to_string())?;
    let cold = Policy::asr().check(&fresh, &fresh_table);
    if warm.violations != cold {
        return Err("warm db verdict differs from the cold check".into());
    }
    warm.verify_evidence()?;
    Ok(Verdict::of(&cold))
}
