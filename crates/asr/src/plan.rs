//! Compiled execution plans: causality-staged fixed-point scheduling.
//!
//! The per-instant least fixed point does not have to be *discovered*
//! dynamically every instant. Following Edwards-style constructive
//! scheduling, the delay-free dependency graph is condensed into its
//! strongly connected components once, at [`SystemBuilder::build`] time
//! ([`crate::causality::condense`]), and the components — the plan's
//! **strata** — are laid out in topological order:
//!
//! * a singleton acyclic stratum ([`Stratum::Once`]) is evaluated
//!   **exactly once**: by the time it runs, every one of its input
//!   signals already carries its final value;
//! * a cyclic stratum ([`Stratum::Cyclic`]) — a delay-free strongly
//!   connected component — is solved by a **local worklist** restricted
//!   to its member blocks. Whether it settles above ⊥ depends on the
//!   non-strictness of the blocks involved, exactly as before.
//!
//! Because the strata partition the blocks and every cross-stratum edge
//! points forward in plan order, the staged evaluation computes the same
//! unique least fixed point as chaotic or worklist iteration
//! ([`crate::fixpoint::Strategy`]), while spending the minimum number of
//! block evaluations on acyclic regions. The `ablation_plan` bench
//! measures the difference.
//!
//! # Levels and parallel execution
//!
//! The strata additionally carry a **level** assignment: the longest-path
//! depth of each stratum in the condensation DAG. Strata in the same
//! level have no delay-free dependencies on one another (an edge always
//! increases depth by at least one), so by the time a level runs, every
//! input of every member block already holds its final value — which
//! means the blocks of one level may be evaluated **in any order,
//! including concurrently**, and the result is bit-identical.
//! [`Strategy::Parallel`](crate::fixpoint::Strategy::Parallel) exploits
//! exactly this: wide acyclic levels are fanned out to a scoped-thread
//! worker pool (`solve_parallel`); cyclic strata and narrow levels run
//! the sequential staged code.
//!
//! [`SystemBuilder::build`]: crate::system::SystemBuilder::build

use crate::causality;
use crate::error::EvalError;
use crate::fixpoint::{EvalScratch, FixpointStats};
use crate::obs::SystemObs;
use crate::port::BlockId;
use crate::system::System;
use crate::value::Value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// One schedule unit of an [`ExecPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stratum {
    /// An acyclic block, evaluated exactly once per instant.
    Once(usize),
    /// A delay-free strongly connected component, solved by a worklist
    /// local to its member blocks (ascending id order).
    Cyclic(Vec<usize>),
}

/// A precompiled per-instant schedule: strata in topological order.
///
/// Compiled once by [`crate::system::SystemBuilder::build`] and consumed
/// by [`crate::fixpoint::Strategy::Staged`] every instant. The plan is
/// pure structure — it holds no per-instant state — so recompilation is
/// only needed when the graph changes (which a built
/// [`System`] never does).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecPlan {
    strata: Vec<Stratum>,
    /// Block index → index of its stratum in `strata`.
    stratum_of: Vec<usize>,
    /// Stratum indices grouped by longest-path depth in the condensation
    /// DAG, in depth order. Strata within one level are mutually
    /// independent (no delay-free edges between them) and each inner
    /// vector is ascending, i.e. plan order.
    levels: Vec<Vec<usize>>,
}

impl ExecPlan {
    /// Compiles the plan for `system` from its causality condensation.
    pub fn compile(system: &System) -> ExecPlan {
        let cond = causality::condense(system);
        let stratum_of = cond.component_of;
        let strata: Vec<Stratum> = cond
            .components
            .into_iter()
            .map(|c| {
                if c.cyclic {
                    Stratum::Cyclic(c.blocks.iter().map(|b| b.index()).collect())
                } else {
                    Stratum::Once(c.blocks[0].index())
                }
            })
            .collect();

        // Longest-path depth of each stratum over the cross-stratum
        // delay-free edges. Strata are in topological order, so every
        // producer stratum's depth is final by the time a consumer
        // stratum is visited.
        let n_inputs = system.input_names.len();
        let mut depth_of = vec![0usize; strata.len()];
        let mut max_depth = 0usize;
        for (t, stratum) in strata.iter().enumerate() {
            let mut d = 0usize;
            let mut visit = |b: usize| {
                for &sig in &system.block_in_sigs[b] {
                    // Only block outputs are delay-free dependencies;
                    // external inputs and delay outputs are final before
                    // the instant begins.
                    if sig < n_inputs || sig >= system.delay_base {
                        continue;
                    }
                    let producer = match system.block_out_base.binary_search(&sig) {
                        Ok(i) => i,
                        Err(i) => i - 1,
                    };
                    let tp = stratum_of[producer];
                    if tp != t {
                        d = d.max(depth_of[tp] + 1);
                    }
                }
            };
            match stratum {
                Stratum::Once(b) => visit(*b),
                Stratum::Cyclic(blocks) => blocks.iter().for_each(|&b| visit(b)),
            }
            depth_of[t] = d;
            max_depth = max_depth.max(d);
        }
        let mut levels = vec![Vec::new(); if strata.is_empty() { 0 } else { max_depth + 1 }];
        for (t, &d) in depth_of.iter().enumerate() {
            levels[d].push(t);
        }

        ExecPlan {
            strata,
            stratum_of,
            levels,
        }
    }

    /// The strata, in topological (execution) order.
    pub fn strata(&self) -> &[Stratum] {
        &self.strata
    }

    /// Total number of strata.
    pub fn num_strata(&self) -> usize {
        self.strata.len()
    }

    /// Number of cyclic strata (delay-free SCCs needing local iteration).
    pub fn num_cyclic_strata(&self) -> usize {
        self.strata
            .iter()
            .filter(|s| matches!(s, Stratum::Cyclic(_)))
            .count()
    }

    /// The stratum index block `b` belongs to.
    pub fn stratum_of(&self, b: usize) -> usize {
        self.stratum_of[b]
    }

    /// Stratum indices grouped by longest-path depth in the condensation
    /// DAG. Strata sharing a level are mutually independent; this is the
    /// fan-out unit of
    /// [`Strategy::Parallel`](crate::fixpoint::Strategy::Parallel).
    pub fn levels(&self) -> &[Vec<usize>] {
        &self.levels
    }

    /// Number of levels (the critical-path length of the plan).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Width of the widest level, counting acyclic blocks only — an upper
    /// bound on how much stratum parallelism the plan exposes.
    pub fn max_level_width(&self) -> usize {
        self.levels
            .iter()
            .map(|lvl| {
                lvl.iter()
                    .filter(|&&t| matches!(self.strata[t], Stratum::Once(_)))
                    .count()
            })
            .max()
            .unwrap_or(0)
    }
}

/// Records a `level` journal event describing the strata mix of one
/// plan level. Emitted identically by [`solve_staged`] and
/// [`solve_parallel`], so the two strategies produce the same semantic
/// event stream.
fn journal_level(obs: Option<&SystemObs>, plan: &ExecPlan, li: usize, level: &[usize]) {
    if let Some(o) = obs {
        let mut once = 0u32;
        let mut cyclic = 0u32;
        for &t in level {
            match plan.strata()[t] {
                Stratum::Once(_) => once += 1,
                Stratum::Cyclic(_) => cyclic += 1,
            }
        }
        o.journal.record(jtobs::EventKind::LevelBegin {
            level: li as u32,
            once,
            cyclic,
        });
    }
}

/// Evaluates one instant against the precompiled plan. `signals` arrives
/// with external inputs and delay outputs determined; acyclic strata run
/// exactly once, cyclic strata iterate a local worklist until stable.
///
/// Iteration order is **level order** — for each level of the plan, the
/// acyclic strata in ascending plan order, then the cyclic strata — the
/// exact order [`solve_parallel`] merges worker results in. Level order
/// is still topological (every cross-stratum edge increases depth by at
/// least one), so this computes the same fixed point with the same
/// per-stratum work; making the two functions share one order keeps
/// their journals bit-identical modulo timing.
pub(crate) fn solve_staged(
    sys: &System,
    signals: &mut [Value],
    obs: Option<&SystemObs>,
) -> Result<FixpointStats, EvalError> {
    let mut stats = FixpointStats::default();
    let mut scratch = sys.scratch.lock().expect("eval scratch lock");
    let s = &mut *scratch;
    let plan = sys.plan();
    for (li, level) in plan.levels().iter().enumerate() {
        journal_level(obs, plan, li, level);
        for &t in level {
            if let Stratum::Once(b) = plan.strata()[t] {
                run_once_stratum(sys, b, signals, s, &mut stats, obs)?;
            }
        }
        for &t in level {
            if let Stratum::Cyclic(blocks) = &plan.strata()[t] {
                run_cyclic_stratum(sys, t, blocks, signals, s, &mut stats, obs)?;
            }
        }
    }
    Ok(stats)
}

/// Evaluates one acyclic stratum sequentially: exactly one block eval,
/// its inputs already final.
fn run_once_stratum(
    sys: &System,
    b: usize,
    signals: &mut [Value],
    s: &mut EvalScratch,
    stats: &mut FixpointStats,
    obs: Option<&SystemObs>,
) -> Result<(), EvalError> {
    stats.steps += 1;
    stats.block_evals += 1;
    crate::fixpoint::eval_block_observed(
        sys,
        b,
        signals,
        &mut s.in_vals,
        &mut s.out_vals,
        &mut s.changed,
        obs,
    )?;
    stats.climbs += s.changed.len();
    Ok(())
}

/// Solves one cyclic stratum (delay-free SCC) by a worklist local to its
/// member blocks. `idx` is the stratum's plan index, used to keep the
/// worklist in-stratum.
fn run_cyclic_stratum(
    sys: &System,
    idx: usize,
    blocks: &[usize],
    signals: &mut [Value],
    s: &mut EvalScratch,
    stats: &mut FixpointStats,
    obs: Option<&SystemObs>,
) -> Result<(), EvalError> {
    s.queue.clear();
    s.queued.clear();
    s.queued.resize(sys.num_blocks(), false);
    for &b in blocks {
        s.queue.push_back(b);
        s.queued[b] = true;
    }
    // Same defensive bound as the global worklist, scoped to
    // this stratum's blocks and output signals.
    let stratum_signals: usize = blocks.iter().map(|&b| sys.blocks[b].output_arity()).sum();
    let budget = (blocks.len() + 1) * (stratum_signals + 2);
    let mut pops = 0usize;
    while let Some(b) = s.queue.pop_front() {
        s.queued[b] = false;
        pops += 1;
        if pops > budget {
            return Err(EvalError::NonConvergence { iterations: budget });
        }
        stats.steps += 1;
        stats.block_evals += 1;
        stats.cyclic_steps += 1;
        crate::fixpoint::eval_block_observed(
            sys,
            b,
            signals,
            &mut s.in_vals,
            &mut s.out_vals,
            &mut s.changed,
            obs,
        )?;
        stats.climbs += s.changed.len();
        for &sig in &s.changed {
            for &c in &sys.consumers[sig] {
                // Consumers in later strata see the final
                // value when their stratum runs; only
                // in-stratum consumers need re-evaluation.
                if sys.plan().stratum_of(c) == idx && !s.queued[c] {
                    s.queued[c] = true;
                    s.queue.push_back(c);
                }
            }
        }
    }
    if let Some(o) = obs {
        o.journal.record(jtobs::EventKind::CyclicSettle {
            stratum: idx as u32,
            pops: pops as u64,
        });
    }
    Ok(())
}

/// One level's worth of parallel work: the acyclic blocks of the level
/// (plan order) with their input values pre-cloned, plus the
/// work-stealing cursor the workers grab chunks from.
struct LevelBatch {
    /// Block ids, in plan order.
    blocks: Vec<usize>,
    /// `inputs[i]` are the (final) input values of `blocks[i]`.
    inputs: Vec<Vec<Value>>,
    /// Next unclaimed task index; workers `fetch_add` chunks off it.
    cursor: AtomicUsize,
    /// Tasks per grab.
    chunk: usize,
    /// Whether workers should time individual evals (a registry is
    /// attached).
    timed: bool,
}

/// Result of one task (block eval) computed by a worker.
struct TaskOut {
    /// Index into [`LevelBatch::blocks`].
    task: usize,
    /// The block's raw outputs; merged into the signal store (with the
    /// monotonicity check) by the main thread, in plan order.
    outputs: Vec<Value>,
    /// Block error message, if the eval failed.
    error: Option<String>,
    /// Eval wall time (0 unless [`LevelBatch::timed`]).
    eval_ns: u64,
}

/// Everything one worker hands back for one level.
struct WorkerReport {
    results: Vec<TaskOut>,
    /// Chunk grabs beyond the worker's first — work it stole from the
    /// static share of slower peers.
    steals: u64,
    /// Summed eval time (0 unless timed), for the utilisation gauge.
    busy_ns: u64,
}

/// Worker body: pull level batches until the task channel closes, grab
/// chunks off each batch's cursor, evaluate into private buffers, and
/// report. Workers never touch the signal store — inputs arrive cloned
/// in the batch and outputs travel back in the report — so the shared
/// state is `&System` (immutable) plus the atomics.
fn parallel_worker(
    sys: &System,
    rx: mpsc::Receiver<Arc<LevelBatch>>,
    tx: mpsc::Sender<WorkerReport>,
) {
    while let Ok(batch) = rx.recv() {
        let mut report = WorkerReport {
            results: Vec::new(),
            steals: 0,
            busy_ns: 0,
        };
        let mut grabs = 0u64;
        loop {
            let start = batch.cursor.fetch_add(batch.chunk, Ordering::Relaxed);
            if start >= batch.blocks.len() {
                break;
            }
            grabs += 1;
            let end = (start + batch.chunk).min(batch.blocks.len());
            for task in start..end {
                let b = batch.blocks[task];
                let block = &sys.blocks[b];
                let mut outputs = vec![Value::Unknown; block.output_arity()];
                let t0 = batch.timed.then(Instant::now);
                let error = block
                    .eval(&batch.inputs[task], &mut outputs)
                    .err()
                    .map(|e| e.message().to_string());
                let eval_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                report.busy_ns += eval_ns;
                report.results.push(TaskOut {
                    task,
                    outputs,
                    error,
                    eval_ns,
                });
            }
        }
        report.steals = grabs.saturating_sub(1);
        if tx.send(report).is_err() {
            return; // solve aborted; nothing left to report to
        }
    }
}

/// Evaluates one instant against the plan's levels, fanning wide acyclic
/// levels out to `workers` scoped threads. Bit-identical to
/// [`solve_staged`] — same signals, same [`FixpointStats`] — because
/// blocks within a level are mutually independent and their outputs are
/// merged (and monotonicity-checked) by the main thread in plan order.
/// Cyclic strata and levels narrower than
/// [`System::parallel_threshold`](crate::system::System::parallel_threshold)
/// run the sequential staged code.
pub(crate) fn solve_parallel(
    sys: &System,
    signals: &mut [Value],
    workers: usize,
    obs: Option<&SystemObs>,
) -> Result<FixpointStats, EvalError> {
    // A worker pool of one is just staged evaluation; a threshold of 0
    // still needs at least one block to fan out.
    let threshold = sys.parallel_threshold.max(1);
    let plan = sys.plan();
    let any_wide = plan.levels().iter().any(|lvl| {
        lvl.iter()
            .filter(|&&t| matches!(plan.strata()[t], Stratum::Once(_)))
            .count()
            >= threshold
    });
    if workers <= 1 || !any_wide {
        return solve_staged(sys, signals, obs);
    }
    if let Some(o) = obs {
        o.par_workers.set(workers as i64);
    }

    let mut stats = FixpointStats::default();
    let mut scratch = sys.scratch.lock().expect("eval scratch lock");
    let s = &mut *scratch;

    std::thread::scope(|scope| {
        let (report_tx, report_rx) = mpsc::channel::<WorkerReport>();
        let mut batch_txs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::channel::<Arc<LevelBatch>>();
            let report_tx = report_tx.clone();
            scope.spawn(move || parallel_worker(sys, rx, report_tx));
            batch_txs.push(tx);
        }
        drop(report_tx);

        for (li, level) in plan.levels().iter().enumerate() {
            journal_level(obs, plan, li, level);
            let once: Vec<usize> = level
                .iter()
                .filter_map(|&t| match &plan.strata()[t] {
                    Stratum::Once(b) => Some(*b),
                    Stratum::Cyclic(_) => None,
                })
                .collect();

            if once.len() >= threshold {
                // Fan out: inputs of every block in the level are final,
                // so clone them into the batch and let workers race.
                let level_t0 = obs.map(|_| Instant::now());
                let inputs: Vec<Vec<Value>> = once
                    .iter()
                    .map(|&b| {
                        sys.block_in_sigs[b]
                            .iter()
                            .map(|&sig| signals[sig].clone())
                            .collect()
                    })
                    .collect();
                let chunk = once.len().div_ceil(workers * 4).max(1);
                let batch = Arc::new(LevelBatch {
                    blocks: once,
                    inputs,
                    cursor: AtomicUsize::new(0),
                    chunk,
                    timed: obs.is_some(),
                });
                for tx in &batch_txs {
                    tx.send(Arc::clone(&batch)).expect("worker alive");
                }

                // Every worker reports exactly once per batch, even when
                // it claimed no chunk.
                let mut slots: Vec<Option<TaskOut>> = Vec::new();
                slots.resize_with(batch.blocks.len(), || None);
                let mut steals = 0u64;
                let mut busy_ns = 0u64;
                for _ in 0..workers {
                    let report = report_rx.recv().expect("worker alive");
                    steals += report.steals;
                    busy_ns += report.busy_ns;
                    for out in report.results {
                        let task = out.task;
                        slots[task] = Some(out);
                    }
                }
                if let Some(o) = obs {
                    o.par_levels.inc();
                    o.par_level_width.record(batch.blocks.len() as u64);
                    o.par_steals.add(steals);
                    o.journal.record(jtobs::EventKind::ParallelLevel {
                        level: li as u32,
                        workers: workers as u32,
                        steals,
                    });
                    if let Some(t0) = level_t0 {
                        let wall = t0.elapsed().as_nanos() as u64;
                        if wall > 0 {
                            o.par_utilisation
                                .record((busy_ns * 100) / (wall * workers as u64));
                        }
                    }
                }

                // Deterministic merge, in plan order: monotonicity
                // checks, climb counting, and error selection all behave
                // exactly as the sequential staged pass.
                for (task, &b) in batch.blocks.iter().enumerate() {
                    let out = slots[task].take().expect("every task evaluated");
                    if let Some(message) = out.error {
                        return Err(EvalError::Block {
                            block: BlockId(b),
                            message,
                        });
                    }
                    stats.steps += 1;
                    stats.block_evals += 1;
                    let base = sys.block_out_base[b];
                    for (p, mut new) in out.outputs.into_iter().enumerate() {
                        let sig = base + p;
                        let old = &signals[sig];
                        if *old == new {
                            continue;
                        }
                        if !old.le(&new) {
                            return Err(EvalError::MonotonicityViolation {
                                block: BlockId(b),
                                port: p,
                                before: old.clone(),
                                after: new.clone(),
                            });
                        }
                        signals[sig] = std::mem::take(&mut new);
                        stats.climbs += 1;
                    }
                    if let Some(o) = obs {
                        o.block_evals[b].inc();
                        o.block_ns[b].record(out.eval_ns);
                        o.block_ns_all.record(out.eval_ns);
                        o.journal.record(jtobs::EventKind::BlockEval {
                            block: b as u32,
                            name: o.block_names[b].clone(),
                            dur_ns: out.eval_ns,
                        });
                    }
                }
            } else {
                // Narrow level: sequential fallback, in plan order.
                if let Some(o) = obs {
                    if !once.is_empty() {
                        o.par_seq_levels.inc();
                    }
                }
                for &t in level {
                    if let Stratum::Once(b) = plan.strata()[t] {
                        run_once_stratum(sys, b, signals, s, &mut stats, obs)?;
                    }
                }
            }

            // Delay-free SCCs are inherently sequential: solve them on
            // this thread with the stratum-local worklist.
            for &t in level {
                if let Stratum::Cyclic(blocks) = &plan.strata()[t] {
                    run_cyclic_stratum(sys, t, blocks, signals, s, &mut stats, obs)?;
                }
            }
        }
        Ok(())
    })?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixpoint::Strategy;
    use crate::stock;
    use crate::system::{Sink, Source, SystemBuilder};

    /// in → g1 → g2 → out, plus a constructive select cycle hanging off g2.
    fn mixed_system() -> System {
        let mut b = SystemBuilder::new("mixed");
        let x = b.add_input("x");
        let g1 = b.add_block(stock::gain("g1", 2));
        let g2 = b.add_block(stock::gain("g2", 3));
        let sel = b.add_block(stock::select("sel"));
        let c = b.add_block(stock::const_bool("c", true));
        let o = b.add_output("o");
        b.connect(Source::ext(x), Sink::block(g1, 0)).unwrap();
        b.connect(Source::block(g1, 0), Sink::block(g2, 0)).unwrap();
        b.connect(Source::block(c, 0), Sink::block(sel, 0)).unwrap();
        b.connect(Source::block(g2, 0), Sink::block(sel, 1)).unwrap();
        b.connect(Source::block(sel, 0), Sink::block(sel, 2)).unwrap();
        b.connect(Source::block(sel, 0), Sink::ext(o)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn plan_has_topologically_ordered_strata() {
        let sys = mixed_system();
        let plan = sys.plan();
        assert_eq!(plan.num_cyclic_strata(), 1);
        // 4 blocks, one of them (sel) in a cyclic singleton stratum.
        assert_eq!(plan.num_strata(), 4);
        // g1's stratum must precede g2's, which must precede sel's.
        assert!(plan.stratum_of(0) < plan.stratum_of(1));
        assert!(plan.stratum_of(1) < plan.stratum_of(2));
    }

    #[test]
    fn staged_matches_other_strategies_and_uses_fewer_evals() {
        let inputs = [Value::int(7)];
        let mut results = Vec::new();
        for strat in Strategy::ALL {
            let mut sys = mixed_system();
            sys.set_strategy(strat);
            sys.set_parallel_threshold(1);
            let sol = sys.eval_instant(&inputs).unwrap();
            results.push((strat, sol.signals().to_vec(), sol.stats().block_evals));
        }
        for (strat, signals, _) in &results[1..] {
            assert_eq!(signals, &results[0].1, "{strat:?} diverged from Chaotic");
        }
        let by_strat = |want: Strategy| {
            results
                .iter()
                .find(|(s, _, _)| *s == want)
                .map(|(_, _, evals)| *evals)
                .unwrap()
        };
        let chaotic_evals = by_strat(Strategy::Chaotic);
        let worklist_evals = by_strat(Strategy::Worklist);
        let staged_evals = by_strat(Strategy::Staged);
        let parallel_evals = by_strat(Strategy::Parallel { workers: 4 });
        assert!(staged_evals <= worklist_evals);
        assert!(staged_evals <= chaotic_evals);
        assert_eq!(parallel_evals, staged_evals, "parallel ≡ staged, eval for eval");
    }

    #[test]
    fn plan_levels_group_independent_strata() {
        // A diamond: src feeds two gains which feed an adder. The gains
        // share a level; the plan exposes width 2.
        let mut b = SystemBuilder::new("diamond");
        let x = b.add_input("x");
        let g1 = b.add_block(stock::gain("g1", 2));
        let g2 = b.add_block(stock::gain("g2", 3));
        let a = b.add_block(stock::add("a"));
        let o = b.add_output("o");
        b.connect(Source::ext(x), Sink::block(g1, 0)).unwrap();
        b.connect(Source::ext(x), Sink::block(g2, 0)).unwrap();
        b.connect(Source::block(g1, 0), Sink::block(a, 0)).unwrap();
        b.connect(Source::block(g2, 0), Sink::block(a, 1)).unwrap();
        b.connect(Source::block(a, 0), Sink::ext(o)).unwrap();
        let sys = b.build().unwrap();
        let plan = sys.plan();
        assert_eq!(plan.num_levels(), 2);
        assert_eq!(plan.max_level_width(), 2);
        assert_eq!(plan.levels()[0].len(), 2, "g1 and g2 share level 0");
        assert_eq!(plan.levels()[1].len(), 1, "the adder waits for both");
        // Level membership is consistent with strata.
        let level_of = |block: usize| {
            plan.levels()
                .iter()
                .position(|lvl| lvl.contains(&plan.stratum_of(block)))
                .unwrap()
        };
        assert_eq!(level_of(g1.index()), level_of(g2.index()));
        assert!(level_of(a.index()) > level_of(g1.index()));
    }

    #[test]
    fn parallel_matches_staged_stats_exactly_across_worker_counts() {
        let inputs = [Value::int(7)];
        let mut staged = mixed_system();
        staged.set_strategy(Strategy::Staged);
        let reference = staged.eval_instant(&inputs).unwrap();
        for workers in [1, 2, 4, 8] {
            let mut sys = mixed_system();
            sys.set_strategy(Strategy::Parallel { workers });
            sys.set_parallel_threshold(1);
            let sol = sys.eval_instant(&inputs).unwrap();
            assert_eq!(sol.signals(), reference.signals(), "workers={workers}");
            assert_eq!(sol.stats(), reference.stats(), "workers={workers}");
        }
    }

    #[test]
    fn parallel_propagates_block_errors() {
        // Division by zero in a wide level must surface as the identical
        // EvalError::Block staged reports (first failing block in plan
        // order wins, even though both divisions fail concurrently).
        fn erroring_system() -> System {
            let mut b = SystemBuilder::new("err");
            let x = b.add_input("x");
            let z = b.add_block(stock::gain("z", 0));
            let d1 = b.add_block(stock::div("d1"));
            let d2 = b.add_block(stock::div("d2"));
            let o = b.add_output("o");
            b.connect(Source::ext(x), Sink::block(z, 0)).unwrap();
            b.connect(Source::ext(x), Sink::block(d1, 0)).unwrap();
            b.connect(Source::block(z, 0), Sink::block(d1, 1)).unwrap();
            b.connect(Source::ext(x), Sink::block(d2, 0)).unwrap();
            b.connect(Source::block(z, 0), Sink::block(d2, 1)).unwrap();
            b.connect(Source::block(d1, 0), Sink::ext(o)).unwrap();
            b.build().unwrap()
        }
        let mut staged = erroring_system();
        staged.set_strategy(Strategy::Staged);
        let mut parallel = erroring_system();
        parallel.set_strategy(Strategy::Parallel { workers: 4 });
        parallel.set_parallel_threshold(1);
        let se = staged.react(&[Value::int(5)]).unwrap_err();
        let pe = parallel.react(&[Value::int(5)]).unwrap_err();
        assert_eq!(se, pe, "parallel reports the identical first error");
    }

    #[test]
    fn staged_evaluates_acyclic_blocks_exactly_once() {
        let mut b = SystemBuilder::new("chain");
        let x = b.add_input("x");
        let mut prev = Source::ext(x);
        for k in 0..10 {
            // Reversed-id wiring is irrelevant to the plan: strata are
            // in dependency order, not id order.
            let inc = b.add_block(stock::offset(format!("inc{k}"), 1));
            b.connect(prev, Sink::block(inc, 0)).unwrap();
            prev = Source::block(inc, 0);
        }
        let o = b.add_output("o");
        b.connect(prev, Sink::ext(o)).unwrap();
        let mut sys = b.build().unwrap();
        sys.set_strategy(Strategy::Staged);
        let sol = sys.eval_instant(&[Value::int(0)]).unwrap();
        assert_eq!(sol.stats().block_evals, 10);
        assert_eq!(sol.stats().cyclic_steps, 0);
        assert_eq!(sol.signals().last().unwrap().as_int(), Some(10));
    }

    #[test]
    fn staged_leaves_nonconstructive_cycle_at_bottom() {
        let mut b = SystemBuilder::new("n");
        let x = b.add_input("x");
        let a1 = b.add_block(stock::add("a1"));
        let a2 = b.add_block(stock::add("a2"));
        let o = b.add_output("o");
        b.connect(Source::ext(x), Sink::block(a1, 0)).unwrap();
        b.connect(Source::block(a2, 0), Sink::block(a1, 1)).unwrap();
        b.connect(Source::block(a1, 0), Sink::block(a2, 0)).unwrap();
        b.connect(Source::ext(x), Sink::block(a2, 1)).unwrap();
        b.connect(Source::block(a1, 0), Sink::ext(o)).unwrap();
        let mut sys = b.build().unwrap();
        sys.set_strategy(Strategy::Staged);
        let sol = sys.eval_instant(&[Value::int(1)]).unwrap();
        assert!(sol.signals()[sys.num_signals() - 1].is_unknown() || {
            // Output signal is a1's output; fetch via outputs_of.
            sys.outputs_of(&sol)[0].is_unknown()
        });
        assert!(sol.stats().cyclic_steps >= 2, "both cycle members popped");
    }
}
