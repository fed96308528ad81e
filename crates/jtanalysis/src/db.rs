//! The incremental analysis database: memoized, demand-driven queries
//! over the flow-sensitive suite.
//!
//! [`AnalysisDb`] replaces the batch drivers with a salsa-style (but
//! hand-rolled, std-only) query engine. Every *method-level query* —
//! CFG size, definite assignment, constant propagation, intervals with
//! loop bounds — is keyed by a structural fingerprint of the method and
//! its class context ([`crate::fingerprint`]); every *SCC-level query*
//! (the purity/escape summaries of one call-graph component) is keyed
//! by its member fingerprints plus the summary hashes of its external
//! callees. Cached results store method-local pre-order indices instead
//! of spans or node ids, and are rebased onto the current parse at
//! materialization time, so a re-parse that renumbers every node still
//! hits.
//!
//! Invalidation is therefore purely key-driven: an edit to one method
//! changes that method's fingerprint (new keys, old entries orphaned)
//! and can only propagate *upward* through the condensation DAG via
//! changed summary hashes. Early cutoff falls out of the keying: if a
//! recomputed SCC produces summaries with the same hash, its callers'
//! keys are unchanged and the dirty cone stops there.
//!
//! The whole-program points-to relation is maintained *differentially*
//! across revisions by `ptdelta::PtCache`: each method's
//! constraint contribution is keyed by a constant-blind shape
//! fingerprint, an edit retracts only the tainted frontier's derived
//! facts and re-propagates from there, and a span-only edit rebases
//! the solved relation outright without touching the solver.
//!
//! The analysis *tail* — race verdicts, R13 ownership, R14 alias
//! leaks, call-site loop proofs, R2 loop evidence, and per-method WCET
//! folds — runs as demand queries memoized in `demand`: each
//! product's span-free core is keyed by exactly the facts it cites
//! (method keys, the signature fingerprint, the canonical points-to
//! relation fingerprint, summary digests), so an edit whose effects
//! don't reach a query's inputs re-serves its verdict from the memo.
//! Only span materialization and evidence rendering re-run
//! unconditionally — see DESIGN §8/§9 for the boundary.
//!
//! Metrics (with a registry attached): `jtanalysis.db.hits`, `.misses`,
//! `.recomputed`, `.invalidated`, `.scc_hits`, `.scc_misses`,
//! `.pointsto_hits`, `.pointsto_misses`, `.pt_constraints_retracted`,
//! `.pt_constraints_added`, `.demand_hits`, `.demand_misses`, and the
//! `jtanalysis.db.revision` gauge, alongside the same suite metrics the
//! batch driver exported.

use crate::callgraph::CallGraph;
use crate::constprop::{self, ConstpropCore};
use crate::definite::{self, DefiniteCore};
use crate::demand::{DemandCtx, TailMemo};
use crate::escape::EscapeSummary;
use crate::fingerprint::{combine, field_lens_fp, Fp, NodeMap, ProgramIndex, StructHasher};
use crate::interval::{self, FieldLenIndex, IntervalCore};
use crate::pointsto;
use crate::ptdelta::{DeltaPath, PtCache};
use crate::purity::PuritySummary;
use crate::races;
use crate::summary::{self, MethodSummary, SummaryReport};
use crate::{cfg, each_method, flow::FlowReport, MethodRef};
use jtlang::ast::{NodeId, Program};
use jtlang::resolve::ClassTable;
use std::collections::{btree_map::Entry, BTreeMap, BTreeSet};

/// Revisions an entry survives without being used before eviction.
const KEEP_REVISIONS: u64 = 4;

/// Per-run (and accumulated) cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Method-level query lookups served from cache.
    pub hits: u64,
    /// Method-level query lookups that found no entry.
    pub misses: u64,
    /// Method-level queries actually recomputed (= misses; kept as its
    /// own counter because the metric contract names both).
    pub recomputed: u64,
    /// Method-level queries whose key changed relative to the previous
    /// revision (the direct dirty set of the edit).
    pub invalidated: u64,
    /// SCC summary lookups served from cache.
    pub scc_hits: u64,
    /// SCC summaries recomputed.
    pub scc_misses: u64,
    /// Points-to relations served warm — rebased or delta-solved from
    /// the previous revision's constraint graph.
    pub pointsto_hits: u64,
    /// Points-to relations solved from scratch.
    pub pointsto_misses: u64,
    /// Points-to constraint-set members retracted by the delta solver.
    pub pt_constraints_retracted: u64,
    /// Points-to constraint-set members derived this run (all facts on
    /// a cold solve, the re-derived frontier on a delta).
    pub pt_constraints_added: u64,
    /// Tail demand queries (race, R13/R14, loop-proof, WCET cores)
    /// served from the memo.
    pub demand_hits: u64,
    /// Tail demand queries computed.
    pub demand_misses: u64,
    /// Wall-clock nanoseconds spent in the analysis tail (points-to
    /// update plus demand-driven products).
    pub tail_ns: u64,
}

impl RunStats {
    fn absorb(&mut self, other: &RunStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.recomputed += other.recomputed;
        self.invalidated += other.invalidated;
        self.scc_hits += other.scc_hits;
        self.scc_misses += other.scc_misses;
        self.pointsto_hits += other.pointsto_hits;
        self.pointsto_misses += other.pointsto_misses;
        self.pt_constraints_retracted += other.pt_constraints_retracted;
        self.pt_constraints_added += other.pt_constraints_added;
        self.demand_hits += other.demand_hits;
        self.demand_misses += other.demand_misses;
        self.tail_ns += other.tail_ns;
    }

    /// Total method-level query lookups this run.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

#[derive(Debug, Clone)]
struct CacheSlot<T> {
    value: T,
    last_used: u64,
}

/// An [`EscapeSummary`] in cacheable form: allocation sites stored as
/// expression pre-order indices instead of node ids.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EscapeCore {
    param_escapes: Vec<bool>,
    this_escapes: bool,
    returns_this: bool,
    returns_this_field: BTreeSet<String>,
    leaked_this_fields: BTreeSet<String>,
    returns_fresh: bool,
    escaping_allocs: Vec<u32>,
}

impl EscapeCore {
    fn from_summary(es: &EscapeSummary, map: Option<&NodeMap>) -> EscapeCore {
        let mut escaping_allocs: Vec<u32> = es
            .escaping_allocs
            .iter()
            .filter_map(|id| map.and_then(|m| m.expr_index(*id)))
            .filter_map(|i| u32::try_from(i).ok())
            .collect();
        escaping_allocs.sort_unstable();
        EscapeCore {
            param_escapes: es.param_escapes.clone(),
            this_escapes: es.this_escapes,
            returns_this: es.returns_this,
            returns_this_field: es.returns_this_field.clone(),
            leaked_this_fields: es.leaked_this_fields.clone(),
            returns_fresh: es.returns_fresh,
            escaping_allocs,
        }
    }

    fn to_summary(&self, map: Option<&NodeMap>) -> EscapeSummary {
        let escaping_allocs: BTreeSet<NodeId> = self
            .escaping_allocs
            .iter()
            .filter_map(|&i| map.map(|m| m.expr(i as usize).0))
            .collect();
        EscapeSummary {
            param_escapes: self.param_escapes.clone(),
            this_escapes: self.this_escapes,
            returns_this: self.returns_this,
            returns_this_field: self.returns_this_field.clone(),
            leaked_this_fields: self.leaked_this_fields.clone(),
            returns_fresh: self.returns_fresh,
            escaping_allocs,
        }
    }
}

/// Stable hash of one member's (purity, escape) summary pair, used for
/// early cutoff in caller SCC keys.
fn summary_hash(p: &PuritySummary, e: &EscapeCore) -> Fp {
    let mut h = StructHasher::new();
    for set in [&p.reads, &p.writes] {
        h.u64(set.len() as u64);
        for f in set {
            h.str(&f.to_string());
        }
    }
    for b in [
        p.port_read,
        p.port_write,
        p.blocking,
        p.starts_threads,
        p.allocates,
        p.diverged,
        e.this_escapes,
        e.returns_this,
        e.returns_fresh,
    ] {
        h.bool(b);
    }
    h.u64(e.param_escapes.len() as u64);
    for b in &e.param_escapes {
        h.bool(*b);
    }
    for set in [&e.returns_this_field, &e.leaked_this_fields] {
        h.u64(set.len() as u64);
        for f in set {
            h.str(f);
        }
    }
    h.u64(e.escaping_allocs.len() as u64);
    for i in &e.escaping_allocs {
        h.u64(u64::from(*i));
    }
    h.finish()
}

#[derive(Debug, Clone)]
struct SccEntry {
    members: Vec<(MethodRef, PuritySummary, EscapeCore)>,
    passes: u64,
    diverged: bool,
    last_used: u64,
}

/// The memoized query engine. Hold one across re-parses ("revisions")
/// of an evolving program and call [`AnalysisDb::analyze`] after each
/// edit; unchanged methods and call-graph components are served from
/// cache.
#[derive(Debug, Default)]
pub struct AnalysisDb {
    revision: u64,
    /// Whole-revision replay cache, keyed by the span-inclusive
    /// [`crate::fingerprint::revision_fp`]: re-analyzing a byte-
    /// equivalent parse returns the previous report wholesale,
    /// including the per-revision products (points-to, races, WCET)
    /// that are too id-entangled for per-method caching.
    revisions: BTreeMap<Fp, CacheSlot<FlowReport>>,
    cfg_sizes: BTreeMap<Fp, CacheSlot<usize>>,
    definite: BTreeMap<Fp, CacheSlot<DefiniteCore>>,
    constprop: BTreeMap<Fp, CacheSlot<ConstpropCore>>,
    interval: BTreeMap<Fp, CacheSlot<IntervalCore>>,
    sccs: BTreeMap<Fp, SccEntry>,
    /// Cross-revision delta points-to solver: caches the previous
    /// revision's constraint shapes and solved relation, retracting and
    /// re-deriving only the tainted frontier of an edit
    /// ([`crate::ptdelta`]).
    ptcache: PtCache,
    /// Demand-query memo for the analysis tail: race verdicts, R13/R14
    /// cores, call-site loop proofs, R2 evidence, and WCET folds
    /// ([`crate::demand`]).
    tail: TailMemo,
    /// `(method key, interval key)` per method at the previous revision,
    /// for the `invalidated` statistic.
    prev_keys: BTreeMap<MethodRef, (Fp, Fp)>,
    last: RunStats,
    total: RunStats,
}

fn lookup<T: Clone>(
    map: &mut BTreeMap<Fp, CacheSlot<T>>,
    key: Fp,
    revision: u64,
    stats: &mut RunStats,
    compute: impl FnOnce() -> T,
) -> T {
    match map.entry(key) {
        Entry::Occupied(mut e) => {
            e.get_mut().last_used = revision;
            stats.hits += 1;
            e.get().value.clone()
        }
        Entry::Vacant(v) => {
            stats.misses += 1;
            stats.recomputed += 1;
            let value = compute();
            v.insert(CacheSlot {
                value: value.clone(),
                last_used: revision,
            });
            value
        }
    }
}

impl AnalysisDb {
    /// An empty database at revision 0.
    pub fn new() -> AnalysisDb {
        AnalysisDb::default()
    }

    /// Statistics of the most recent [`AnalysisDb::analyze`] call.
    pub fn last_run(&self) -> RunStats {
        self.last
    }

    /// Statistics accumulated over the database's lifetime.
    pub fn totals(&self) -> RunStats {
        self.total
    }

    /// Number of *distinct* revisions fully analyzed so far. Replays of
    /// a byte-equivalent parse are served from the revision cache and
    /// do not advance this counter (or age any cache entry).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Analyzes one revision of the program, reusing every cache entry
    /// whose key is unchanged. The returned report is identical to what
    /// the batch `flow::analyze` produces on the same input.
    pub fn analyze(
        &mut self,
        program: &Program,
        table: &ClassTable,
        graph: &CallGraph,
    ) -> FlowReport {
        self.run(program, table, graph, None)
    }

    /// [`AnalysisDb::analyze`], additionally exporting `jtobs` metrics.
    pub fn analyze_with_registry(
        &mut self,
        program: &Program,
        table: &ClassTable,
        graph: &CallGraph,
        registry: &jtobs::Registry,
    ) -> FlowReport {
        self.run(program, table, graph, Some(registry))
    }

    fn run(
        &mut self,
        program: &Program,
        table: &ClassTable,
        graph: &CallGraph,
        registry: Option<&jtobs::Registry>,
    ) -> FlowReport {
        let _suite_span = registry.map(|r| r.span("jtanalysis.flow"));

        // Replay path: a byte-equivalent parse of an already analyzed
        // revision returns the whole prior report — every query warm.
        let rkey = timed(registry, "fingerprint", || {
            crate::fingerprint::revision_fp(program)
        });
        if let Some(slot) = self.revisions.get_mut(&rkey) {
            slot.last_used = self.revision;
            let report = slot.value.clone();
            let stats = RunStats {
                hits: 4 * each_method(program).count() as u64,
                scc_hits: report.summary.sccs as u64,
                pointsto_hits: 1,
                demand_hits: each_method(program).count() as u64,
                ..RunStats::default()
            };
            self.last = stats;
            self.total.absorb(&stats);
            if let Some(r) = registry {
                export_metrics(r, &report, &stats, self.revision);
            }
            return report;
        }

        self.revision += 1;
        let revision = self.revision;
        let mut stats = RunStats::default();
        let mut report = FlowReport::default();

        // Revision-wide fingerprints and the one-pass field-length
        // index (both linear in program size).
        let ix = ProgramIndex::build(program, table);
        let field_index = FieldLenIndex::build(program);
        let mut class_lens: BTreeMap<&str, (BTreeMap<String, i64>, Fp)> = BTreeMap::new();
        for class in &program.classes {
            let lens = field_index.lengths_for(class);
            let fp = field_lens_fp(&lens);
            class_lens.insert(class.name.as_str(), (lens, fp));
        }
        let keys: BTreeMap<MethodRef, (Fp, Fp)> = each_method(program)
            .map(|(class, _, mref)| {
                let mkey = ix.method_key(&mref).expect("indexed method");
                let lens_fp = class_lens
                    .get(class.name.as_str())
                    .map(|(_, fp)| *fp)
                    .unwrap_or_default();
                (mref, (mkey, combine(&[mkey, lens_fp])))
            })
            .collect();
        for (mref, (mkey, ikey)) in &keys {
            if let Some((pm, pi)) = self.prev_keys.get(mref) {
                if pm != mkey {
                    // cfg + definite + constprop share the method key.
                    stats.invalidated += 3;
                }
                if pi != ikey {
                    stats.invalidated += 1;
                }
            }
        }

        // Method-level queries, keyed and materialized per method.
        for (class, decl, mref) in each_method(program) {
            let (mkey, _) = keys[&mref];
            let blocks = lookup(&mut self.cfg_sizes, mkey, revision, &mut stats, || {
                cfg::build(class, decl, mref.clone()).blocks.len()
            });
            report.cfg_blocks += blocks;
            report.cfg_methods += 1;
        }

        report.definite = timed(registry, "definite", || {
            let mut out = crate::definite::DefiniteReport::default();
            for (class, decl, mref) in each_method(program) {
                let (mkey, _) = keys[&mref];
                let map = ix.node_map(&mref).expect("indexed method");
                let core = lookup(&mut self.definite, mkey, revision, &mut stats, || {
                    definite::analyze_method(program, table, class, decl, mref.clone(), map)
                });
                out.solver_iterations += core.iterations;
                definite::materialize(&core, map, &mref, &mut out.unassigned_reads);
            }
            definite::finish(&mut out);
            out
        });

        report.constprop = timed(registry, "constprop", || {
            let mut out = crate::constprop::ConstpropReport::default();
            for (class, decl, mref) in each_method(program) {
                let (mkey, _) = keys[&mref];
                let map = ix.node_map(&mref).expect("indexed method");
                let core = lookup(&mut self.constprop, mkey, revision, &mut stats, || {
                    constprop::analyze_method(program, table, class, decl, mref.clone(), map)
                });
                out.solver_iterations += core.iterations;
                constprop::materialize(&core, map, &mref, &mut out.constant_conds);
            }
            constprop::finish(&mut out);
            out
        });

        report.interval = timed(registry, "interval", || {
            let mut out = crate::interval::IntervalReport::default();
            for (class, decl, mref) in each_method(program) {
                let (_, ikey) = keys[&mref];
                let map = ix.node_map(&mref).expect("indexed method");
                let lens = class_lens
                    .get(class.name.as_str())
                    .map(|(l, _)| l)
                    .cloned()
                    .unwrap_or_default();
                let core = lookup(&mut self.interval, ikey, revision, &mut stats, || {
                    interval::analyze_method(
                        program,
                        table,
                        class,
                        decl,
                        mref.clone(),
                        &lens,
                        map,
                    )
                });
                out.solver_iterations += core.iterations;
                interval::materialize(&core, map, &mref, &mut out);
            }
            interval::finish(&mut out);
            out
        });

        let cond = graph.condensation();
        report.summary = timed(registry, "summary", || {
            self.summaries(program, table, graph, &cond, &ix, &keys, &mut stats)
        });

        // The analysis tail: delta-update the points-to relation, then
        // derive every downstream product through the demand memo. The
        // race tiers share the same relation and context.
        timed(registry, "tail", || {
            let tail_start = std::time::Instant::now();
            let (pt, outcome) = self.ptcache.update(program, table, pointsto::DEFAULT_K, Some(&ix));
            match outcome.path {
                DeltaPath::Cold => stats.pointsto_misses += 1,
                DeltaPath::Rebase | DeltaPath::Delta => stats.pointsto_hits += 1,
            }
            stats.pt_constraints_retracted += outcome.retracted;
            stats.pt_constraints_added += outcome.added;
            let mut ctx = DemandCtx {
                ix: &ix,
                cond: &cond,
                relation_fp: pt.relation_fp(),
                revision,
                memo: &mut self.tail,
                hits: 0,
                misses: 0,
            };
            summary::derive_products(
                program,
                table,
                graph,
                &report.interval.proved_loop_bounds,
                pt,
                &mut report.summary,
                Some(&mut ctx),
            );
            report.races =
                races::analyze_demand(program, table, graph, &report.summary.pointsto, Some(&mut ctx));
            stats.demand_hits += ctx.hits;
            stats.demand_misses += ctx.misses;
            stats.tail_ns = u64::try_from(tail_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        });

        self.revisions.insert(
            rkey,
            CacheSlot {
                value: report.clone(),
                last_used: revision,
            },
        );
        self.evict(revision);
        self.prev_keys = keys;
        self.last = stats;
        self.total.absorb(&stats);

        if let Some(r) = registry {
            export_metrics(r, &report, &stats, revision);
        }
        report
    }

    /// The SCC-level summary layer: walk the condensation bottom-up,
    /// serving each component from cache when its key — member
    /// fingerprints plus external callee summary hashes — is unchanged.
    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::too_many_arguments)]
    fn summaries(
        &mut self,
        program: &Program,
        table: &ClassTable,
        graph: &CallGraph,
        cond: &[Vec<MethodRef>],
        ix: &ProgramIndex,
        keys: &BTreeMap<MethodRef, (Fp, Fp)>,
        stats: &mut RunStats,
    ) -> SummaryReport {
        let revision = self.revision;
        let mut out = SummaryReport::default();
        let mut purities: BTreeMap<MethodRef, PuritySummary> = BTreeMap::new();
        let mut escapes: BTreeMap<MethodRef, EscapeSummary> = BTreeMap::new();
        let mut hashes: BTreeMap<MethodRef, Fp> = BTreeMap::new();

        for scc in cond {
            out.sccs += 1;
            out.largest_scc = out.largest_scc.max(scc.len());

            let mut h = StructHasher::new();
            h.u64(ix.sig.0);
            let in_scc: BTreeSet<&MethodRef> = scc.iter().collect();
            for m in scc {
                h.str(&m.class);
                h.str(&m.method);
                h.bool(m.is_ctor);
                h.u64(keys.get(m).map(|(k, _)| k.0).unwrap_or_default());
            }
            let mut ext: BTreeMap<&MethodRef, Fp> = BTreeMap::new();
            for m in scc {
                for c in graph.callees(m) {
                    if !in_scc.contains(c) {
                        ext.insert(c, hashes.get(c).copied().unwrap_or_default());
                    }
                }
            }
            for (c, fp) in &ext {
                h.str(&c.class);
                h.str(&c.method);
                h.bool(c.is_ctor);
                h.u64(fp.0);
            }
            let skey = h.finish();

            match self.sccs.entry(skey) {
                Entry::Occupied(mut e) => {
                    stats.scc_hits += 1;
                    e.get_mut().last_used = revision;
                    let entry = e.get();
                    for (mref, purity, ecore) in &entry.members {
                        hashes.insert(mref.clone(), summary_hash(purity, ecore));
                        purities.insert(mref.clone(), purity.clone());
                        escapes.insert(mref.clone(), ecore.to_summary(ix.node_map(mref)));
                    }
                    out.fixpoint_iterations += entry.passes;
                    out.divergent_sccs += u64::from(entry.diverged);
                }
                Entry::Vacant(v) => {
                    stats.scc_misses += 1;
                    let st = summary::compute_scc(
                        program,
                        table,
                        graph,
                        scc,
                        &mut purities,
                        &mut escapes,
                    );
                    let members: Vec<(MethodRef, PuritySummary, EscapeCore)> = scc
                        .iter()
                        .map(|m| {
                            let p = purities.get(m).cloned().unwrap_or_default();
                            let es = escapes.get(m).cloned().unwrap_or_default();
                            let ecore = EscapeCore::from_summary(&es, ix.node_map(m));
                            hashes.insert(m.clone(), summary_hash(&p, &ecore));
                            (m.clone(), p, ecore)
                        })
                        .collect();
                    v.insert(SccEntry {
                        members,
                        passes: st.passes,
                        diverged: st.diverged,
                        last_used: revision,
                    });
                    out.fixpoint_iterations += st.passes;
                    out.divergent_sccs += u64::from(st.diverged);
                }
            }
        }

        for (mref, purity) in purities {
            let escape = escapes.remove(&mref).unwrap_or_default();
            out.methods.insert(mref, MethodSummary { purity, escape });
        }
        out
    }

    fn evict(&mut self, revision: u64) {
        let keep = |last_used: u64| last_used + KEEP_REVISIONS >= revision;
        self.revisions.retain(|_, s| keep(s.last_used));
        self.cfg_sizes.retain(|_, s| keep(s.last_used));
        self.definite.retain(|_, s| keep(s.last_used));
        self.constprop.retain(|_, s| keep(s.last_used));
        self.interval.retain(|_, s| keep(s.last_used));
        self.sccs.retain(|_, s| keep(s.last_used));
        self.tail.evict(revision, KEEP_REVISIONS);
    }
}

/// Renders [`RunStats`] (accumulated or per-run) as the two-line
/// rollup printed by `jtlint --stats`: a cache line splitting
/// method-core from points-to traffic, and a tail-traffic line with
/// constraint retraction/derivation counts and demand-query totals.
/// The format is pinned by a unit test here and consumed verbatim by
/// the CLI, so the two can't drift apart.
pub fn render_rollup(stats: &RunStats, revision: u64) -> String {
    format!(
        "db cache: {} method-core hits, {} misses, {} recomputed, {} invalidated; \
         scc summaries: {} hits, {} misses; points-to: {} hits, {} misses; \
         revisions analyzed: {}\n\
         tail traffic: {} constraints retracted, {} added; \
         demand queries: {} hits, {} misses",
        stats.hits,
        stats.misses,
        stats.recomputed,
        stats.invalidated,
        stats.scc_hits,
        stats.scc_misses,
        stats.pointsto_hits,
        stats.pointsto_misses,
        revision,
        stats.pt_constraints_retracted,
        stats.pt_constraints_added,
        stats.demand_hits,
        stats.demand_misses,
    )
}

fn export_metrics(r: &jtobs::Registry, report: &FlowReport, stats: &RunStats, revision: u64) {
    r.gauge("jtanalysis.cfg.blocks").set(report.cfg_blocks as i64);
    r.gauge("jtanalysis.cfg.methods").set(report.cfg_methods as i64);
    r.counter("jtanalysis.solver.iterations.definite")
        .add(report.definite.solver_iterations);
    r.counter("jtanalysis.solver.iterations.constprop")
        .add(report.constprop.solver_iterations);
    r.counter("jtanalysis.solver.iterations.interval")
        .add(report.interval.solver_iterations);
    r.gauge("jtanalysis.summary.sccs").set(report.summary.sccs as i64);
    r.gauge("jtanalysis.summary.methods")
        .set(report.summary.methods.len() as i64);
    r.gauge("jtanalysis.summary.objects")
        .set(report.summary.pointsto.object_count() as i64);
    r.counter("jtanalysis.summary.fixpoint_iterations")
        .add(report.summary.fixpoint_iterations);
    r.counter("jtanalysis.summary.pointsto_passes")
        .add(report.summary.pointsto.passes() as u64);
    r.counter("jtanalysis.summary.divergent_sccs")
        .add(report.summary.divergent_sccs);
    let footprints = r.histogram("jtanalysis.summary.footprint_fields");
    for m in report.summary.methods.values() {
        footprints.record((m.purity.reads.len() + m.purity.writes.len()) as u64);
    }
    r.counter("jtanalysis.db.hits").add(stats.hits);
    r.counter("jtanalysis.db.misses").add(stats.misses);
    r.counter("jtanalysis.db.recomputed").add(stats.recomputed);
    r.counter("jtanalysis.db.invalidated").add(stats.invalidated);
    r.counter("jtanalysis.db.scc_hits").add(stats.scc_hits);
    r.counter("jtanalysis.db.scc_misses").add(stats.scc_misses);
    r.counter("jtanalysis.db.pointsto_hits").add(stats.pointsto_hits);
    r.counter("jtanalysis.db.pointsto_misses")
        .add(stats.pointsto_misses);
    r.counter("jtanalysis.db.pt_constraints_retracted")
        .add(stats.pt_constraints_retracted);
    r.counter("jtanalysis.db.pt_constraints_added")
        .add(stats.pt_constraints_added);
    r.counter("jtanalysis.db.demand_hits").add(stats.demand_hits);
    r.counter("jtanalysis.db.demand_misses").add(stats.demand_misses);
    r.histogram("jtanalysis.time_us.tail_demand")
        .record(stats.tail_ns / 1_000);
    r.gauge("jtanalysis.db.revision").set(revision as i64);
}

fn timed<T>(registry: Option<&jtobs::Registry>, name: &str, f: impl FnOnce() -> T) -> T {
    if let Some(r) = registry {
        if jtobs::ENABLED {
            let start = std::time::Instant::now();
            let out = f();
            let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            r.histogram(&format!("jtanalysis.time_us.{name}")).record(us);
            return out;
        }
    }
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{callgraph, flow, frontend};

    fn setup(src: &str) -> (Program, ClassTable, CallGraph) {
        let (p, t) = frontend(src).unwrap();
        let g = callgraph::build(&p, &t);
        (p, t, g)
    }

    fn reports_equal(a: &FlowReport, b: &FlowReport) -> bool {
        let findings = |r: &FlowReport| {
            (
                r.definite.unassigned_reads.clone(),
                r.constprop.constant_conds.clone(),
                r.interval.oob.clone(),
                r.interval.proved_loop_bounds.clone(),
                r.summary.wcet.clone(),
                r.cfg_blocks,
                r.cfg_methods,
            )
        };
        findings(a) == findings(b)
    }

    #[test]
    fn warm_rerun_of_identical_source_recomputes_nothing() {
        for s in jtlang::corpus::samples() {
            let (p, t, g) = setup(s.source);
            let mut db = AnalysisDb::new();
            let cold = db.analyze(&p, &t, &g);
            assert_eq!(db.last_run().hits, 0, "{}", s.name);
            // Re-parse: every node id and span is re-assigned, but the
            // structure is identical.
            let (p2, t2, g2) = setup(s.source);
            let warm = db.analyze(&p2, &t2, &g2);
            let stats = db.last_run();
            assert_eq!(stats.recomputed, 0, "{}: {:?}", s.name, stats);
            assert_eq!(stats.misses, 0, "{}", s.name);
            assert_eq!(stats.scc_misses, 0, "{}", s.name);
            assert!(stats.hits > 0, "{}", s.name);
            assert!(reports_equal(&cold, &warm), "{}", s.name);
        }
    }

    #[test]
    fn db_report_matches_batch_report() {
        for s in jtlang::corpus::samples() {
            let (p, t, g) = setup(s.source);
            let batch = flow::analyze_batch(&p, &t, &g);
            let mut db = AnalysisDb::new();
            let inc = db.analyze(&p, &t, &g);
            assert!(reports_equal(&batch, &inc), "{}", s.name);
            assert_eq!(
                batch.definite.solver_iterations, inc.definite.solver_iterations,
                "{}",
                s.name
            );
            assert_eq!(batch.summary.methods, inc.summary.methods, "{}", s.name);
        }
    }

    #[test]
    fn one_method_edit_invalidates_only_its_cone() {
        let base = "class A { int f() { return 1; } int g() { return f(); } int h() { return 2; } }";
        let edit = "class A { int f() { return 9; } int g() { return f(); } int h() { return 2; } }";
        let (p, t, g) = setup(base);
        let mut db = AnalysisDb::new();
        db.analyze(&p, &t, &g);
        let (p2, t2, g2) = setup(edit);
        db.analyze(&p2, &t2, &g2);
        let stats = db.last_run();
        // Only `f` changed: cfg + definite + constprop + interval for it.
        assert_eq!(stats.recomputed, 4, "{stats:?}");
        // `f`'s summary hash is unchanged (same purity/escape), so `g`'s
        // SCC key is stable: early cutoff keeps the cone at one SCC.
        assert_eq!(stats.scc_misses, 1, "{stats:?}");
    }

    #[test]
    fn summary_changing_edit_propagates_to_callers() {
        let base = "class A { private int s; A() { s = 0; } int f() { return 1; } int g() { return f(); } }";
        let edit = "class A { private int s; A() { s = 0; } int f() { s = 2; return 1; } int g() { return f(); } }";
        let (p, t, g) = setup(base);
        let mut db = AnalysisDb::new();
        db.analyze(&p, &t, &g);
        let (p2, t2, g2) = setup(edit);
        let report = db.analyze(&p2, &t2, &g2);
        let stats = db.last_run();
        // `f` now writes a field: its summary hash changes, so `g`'s SCC
        // must recompute too (f, g — the ctor's SCC is unaffected).
        assert_eq!(stats.scc_misses, 2, "{stats:?}");
        let f = &report.summary.methods[&MethodRef::method("A", "f")];
        assert!(!f.purity.writes.is_empty());
    }

    #[test]
    fn whitespace_edit_is_free() {
        let base = "class A { int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; } }";
        let spaced = "class A {\n  // comment\n  int f(int n) {\n    int s = 0;\n    for (int i = 0; i < n; i++) { s += i; }\n    return s;\n  }\n}\n";
        let (p, t, g) = setup(base);
        let mut db = AnalysisDb::new();
        db.analyze(&p, &t, &g);
        let (p2, t2, g2) = setup(spaced);
        db.analyze(&p2, &t2, &g2);
        let stats = db.last_run();
        assert_eq!(stats.recomputed, 0, "{stats:?}");
        assert_eq!(stats.scc_misses, 0, "{stats:?}");
        assert_eq!(stats.invalidated, 0, "{stats:?}");
    }

    #[test]
    fn materialized_findings_carry_current_revision_spans() {
        let base = "class A { int m() { int x; return x; } }";
        // Same method, shifted by a comment: the finding's span must
        // point into the *new* source even though the core was cached.
        let shifted = "class A { /* pad pad pad */ int m() { int x; return x; } }";
        let (p, t, g) = setup(base);
        let mut db = AnalysisDb::new();
        let r1 = db.analyze(&p, &t, &g);
        let (p2, t2, g2) = setup(shifted);
        let r2 = db.analyze(&p2, &t2, &g2);
        assert_eq!(db.last_run().recomputed, 0);
        assert_eq!(r1.definite.unassigned_reads.len(), 1);
        assert_eq!(r2.definite.unassigned_reads.len(), 1);
        let (s1, s2) = (
            r1.definite.unassigned_reads[0].span,
            r2.definite.unassigned_reads[0].span,
        );
        assert_eq!(s2.start, s1.start + "/* pad pad pad */ ".len());
    }

    #[test]
    fn span_only_edit_reuses_the_pointsto_relation() {
        // A comment shifts every span and node id, but the span-free
        // program fingerprint is unchanged: the cached relation must be
        // rebased, not re-solved — and the rebased findings must carry
        // the *new* spans.
        let base = "class Acc { public int total; Acc() { total = 0; } }
             class Tap extends ASR {
                 private Acc acc;
                 Tap(Acc shared) { acc = shared; }
                 public void run() { acc.total = acc.total + read(0); }
             }
             class TapB extends ASR {
                 private Acc acc;
                 TapB(Acc shared) { acc = shared; }
                 public void run() { acc.total = acc.total + read(1); }
             }
             class Wiring {
                 Wiring() {
                     Acc shared = new Acc();
                     Tap t = new Tap(shared);
                     TapB b = new TapB(shared);
                 }
             }";
        let shifted = format!("/* pad pad pad */ {base}");
        let (p, t, g) = setup(base);
        let mut db = AnalysisDb::new();
        let r1 = db.analyze(&p, &t, &g);
        assert_eq!(db.last_run().pointsto_misses, 1);
        assert_eq!(db.last_run().pointsto_hits, 0);
        let (p2, t2, g2) = setup(&shifted);
        let r2 = db.analyze(&p2, &t2, &g2);
        let stats = db.last_run();
        assert_eq!(stats.pointsto_hits, 1, "{stats:?}");
        assert_eq!(stats.pointsto_misses, 0, "{stats:?}");
        // The rebased relation must produce the same findings as a
        // fresh solve on the shifted source, with shifted spans.
        let fresh = flow::analyze_batch(&p2, &t2, &g2);
        assert_eq!(r1.summary.impure_blocks.len(), 2);
        assert_eq!(r2.summary.impure_blocks.len(), 2);
        for (a, b) in r2
            .summary
            .impure_blocks
            .iter()
            .zip(fresh.summary.impure_blocks.iter())
        {
            assert_eq!(a.block, b.block);
            assert_eq!(a.span, b.span);
        }
        assert_eq!(
            r2.summary.impure_blocks[0].span.start,
            r1.summary.impure_blocks[0].span.start + "/* pad pad pad */ ".len()
        );
    }

    #[test]
    fn entries_are_evicted_after_keep_revisions() {
        let a = "class A { int f() { return 1; } }";
        let mut db = AnalysisDb::new();
        let (p, t, g) = setup(a);
        db.analyze(&p, &t, &g);
        assert!(!db.definite.is_empty());
        // Analyze enough *distinct* revisions that `a`'s entries age out
        // (replays of a seen revision deliberately don't age anything).
        for i in 0..=KEEP_REVISIONS {
            let src = format!("class A {{ int f() {{ return {}; }} }}", i + 2);
            let (p2, t2, g2) = setup(&src);
            db.analyze(&p2, &t2, &g2);
        }
        let (p3, t3, g3) = setup(a);
        db.analyze(&p3, &t3, &g3);
        assert!(db.last_run().recomputed > 0, "a's entries must have aged out");
    }

    #[test]
    fn rollup_format_is_pinned() {
        let stats = RunStats {
            hits: 40,
            misses: 4,
            recomputed: 4,
            invalidated: 3,
            scc_hits: 5,
            scc_misses: 1,
            pointsto_hits: 1,
            pointsto_misses: 0,
            pt_constraints_retracted: 7,
            pt_constraints_added: 9,
            demand_hits: 21,
            demand_misses: 2,
            tail_ns: 123_456,
        };
        assert_eq!(
            render_rollup(&stats, 2),
            "db cache: 40 method-core hits, 4 misses, 4 recomputed, 3 invalidated; \
             scc summaries: 5 hits, 1 misses; points-to: 1 hits, 0 misses; \
             revisions analyzed: 2\n\
             tail traffic: 7 constraints retracted, 9 added; \
             demand queries: 21 hits, 2 misses"
        );
    }

    #[test]
    fn span_only_edit_serves_the_tail_from_the_demand_memo() {
        // A comment shifts every span, so the revision replay cache
        // misses — but the relation rebases and every tail demand query
        // must hit: nothing about the cited facts changed.
        let base = "class A { private int s; A() { s = 0; } int f() { return s; } }";
        let shifted = format!("/* pad */ {base}");
        let (p, t, g) = setup(base);
        let mut db = AnalysisDb::new();
        db.analyze(&p, &t, &g);
        assert!(db.last_run().demand_misses > 0);
        assert_eq!(db.last_run().demand_hits, 0);
        let (p2, t2, g2) = setup(&shifted);
        db.analyze(&p2, &t2, &g2);
        let stats = db.last_run();
        assert_eq!(stats.demand_misses, 0, "{stats:?}");
        assert!(stats.demand_hits > 0, "{stats:?}");
        assert_eq!(stats.pt_constraints_retracted, 0, "{stats:?}");
        assert_eq!(stats.pt_constraints_added, 0, "{stats:?}");
    }

    #[test]
    fn one_method_edit_keeps_unrelated_demand_queries_warm() {
        // Editing a constant in `h` must not recompute the race/R13
        // tail of the untouched ASR block wiring; with constant-blind
        // constraint shapes the relation delta is empty too.
        let base = "class Acc { public int total; Acc() { total = 0; } }
             class Tap extends ASR {
                 private Acc acc;
                 Tap(Acc shared) { acc = shared; }
                 public void run() { acc.total = acc.total + read(0); }
                 int h() { return 1; }
             }";
        let edit = base.replace("return 1;", "return 2;");
        let (p, t, g) = setup(base);
        let mut db = AnalysisDb::new();
        let r1 = db.analyze(&p, &t, &g);
        let (p2, t2, g2) = setup(&edit);
        let r2 = db.analyze(&p2, &t2, &g2);
        let stats = db.last_run();
        assert_eq!(stats.pointsto_hits, 1, "{stats:?}");
        assert!(stats.demand_hits > 0, "{stats:?}");
        // Only `h`-scoped queries may miss — its method key changed, so
        // each per-method family (access list, trip candidates, call
        // folds, loop evidence, leak cores, WCET fold) re-runs for `h`
        // alone. Every other method's queries and all field verdicts
        // stay warm.
        assert!(stats.demand_misses <= 6, "{stats:?}");
        assert!(stats.demand_hits > stats.demand_misses, "{stats:?}");
        assert_eq!(r1.races.alias_aware.len(), r2.races.alias_aware.len());
        assert_eq!(r1.summary.impure_blocks, r2.summary.impure_blocks);
    }

    #[test]
    fn replaying_a_seen_revision_does_not_age_the_cache() {
        let a = "class A { int f() { return 1; } int g() { return 2; } }";
        let b = "class A { int f() { return 1; } int g() { return 9; } }";
        let mut db = AnalysisDb::new();
        let (p, t, g) = setup(a);
        db.analyze(&p, &t, &g);
        // Many replays of the same revision are free and keep `a` fresh.
        for _ in 0..3 * KEEP_REVISIONS {
            let (p2, t2, g2) = setup(a);
            db.analyze(&p2, &t2, &g2);
            assert_eq!(db.last_run().recomputed, 0);
            assert!(db.last_run().hits > 0);
        }
        assert_eq!(db.revision(), 1, "replays are not new revisions");
        // `f` is still cached: the edit to `g` only recomputes `g`.
        let (p3, t3, g3) = setup(b);
        db.analyze(&p3, &t3, &g3);
        assert_eq!(db.last_run().recomputed, 4, "{:?}", db.last_run());
    }
}
