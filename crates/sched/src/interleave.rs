//! Schedule exploration: exhaustive enumeration and seeded random
//! sampling.
//!
//! Exhaustive exploration walks the full tree of scheduling decisions
//! (which runnable thread executes its next instruction) and collects
//! every distinct observable outcome — the ground truth against which
//! the ASR model's determinism claim is contrasted in the Fig. 8 bench.
//!
//! Two cost controls:
//!
//! * **Local-step reduction** (on by default): instructions that touch no
//!   shared variable ([`crate::program::Instr::Add`]) commute with every
//!   other thread's steps, so they execute eagerly without a branching
//!   scheduling decision — a simple, sound partial-order reduction whose
//!   effect the `ablation_sched_por` bench measures.
//! * **Random sampling**: run `trials` schedules driven by a seeded RNG
//!   instead of enumerating; may miss outcomes (that is the point of
//!   comparing it with exhaustive exploration).

use crate::outcome::{Outcome, OutcomeSet};
use crate::program::{Instr, Program, Source};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Exploration configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Explore {
    /// `None` = exhaustive; `Some((seed, trials))` = random sampling.
    pub random: Option<(u64, usize)>,
    /// Execute shared-invisible instructions without branching.
    pub local_step_reduction: bool,
    /// Safety cap on explored schedules (exhaustive mode).
    pub max_schedules: usize,
}

impl Explore {
    /// Exhaustive exploration with local-step reduction.
    pub fn exhaustive() -> Self {
        Explore {
            random: None,
            local_step_reduction: true,
            max_schedules: 1_000_000,
        }
    }

    /// Exhaustive exploration without the reduction (ablation baseline).
    pub fn exhaustive_unreduced() -> Self {
        Explore {
            local_step_reduction: false,
            ..Explore::exhaustive()
        }
    }

    /// Seeded random sampling.
    pub fn random(seed: u64, trials: usize) -> Self {
        Explore {
            random: Some((seed, trials)),
            local_step_reduction: false,
            max_schedules: usize::MAX,
        }
    }
}

/// Execution state of one schedule prefix.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct State {
    pcs: Vec<usize>,
    vars: BTreeMap<String, i64>,
    regs: Vec<BTreeMap<String, i64>>,
}

impl State {
    fn initial(program: &Program) -> Self {
        State {
            pcs: vec![0; program.threads.len()],
            vars: program.initial.clone(),
            regs: vec![BTreeMap::new(); program.threads.len()],
        }
    }

    fn runnable(&self, program: &Program) -> Vec<usize> {
        (0..program.threads.len())
            .filter(|&t| self.pcs[t] < program.threads[t].instrs.len())
            .collect()
    }

    fn step(&mut self, program: &Program, t: usize) {
        let instr = &program.threads[t].instrs[self.pcs[t]];
        self.pcs[t] += 1;
        let value_of = |src: &Source, regs: &BTreeMap<String, i64>| match src {
            Source::Const(c) => *c,
            Source::Reg(r) => regs.get(r).copied().unwrap_or(0),
        };
        match instr {
            Instr::Read { var, reg } => {
                let v = self.vars.get(var).copied().unwrap_or(0);
                self.regs[t].insert(reg.clone(), v);
            }
            Instr::Write { var, src } => {
                let v = value_of(src, &self.regs[t]);
                self.vars.insert(var.clone(), v);
            }
            Instr::Add { reg, a, b } => {
                let v = value_of(a, &self.regs[t]).wrapping_add(value_of(b, &self.regs[t]));
                self.regs[t].insert(reg.clone(), v);
            }
        }
    }

    /// Runs local (shared-invisible) steps of every thread to exhaustion.
    fn drain_local_steps(&mut self, program: &Program) {
        loop {
            let mut advanced = false;
            for t in 0..program.threads.len() {
                while self.pcs[t] < program.threads[t].instrs.len()
                    && program.threads[t].instrs[self.pcs[t]].shared_var().is_none()
                {
                    self.step(program, t);
                    advanced = true;
                }
            }
            if !advanced {
                return;
            }
        }
    }

    fn outcome(&self, program: &Program) -> Outcome {
        Outcome::observe(program, &self.vars, &self.regs)
    }
}

/// Pre-resolved handles for the `sched.interleave.*` metrics published
/// by [`explore_with_registry`]:
///
/// * `sched.interleave.explored` — complete schedules executed,
/// * `sched.interleave.pruned` — branches cut by the visited-state memo,
/// * `sched.interleave.states` — distinct states visited,
/// * `sched.interleave.outcome_set_size` — histogram of distinct-outcome
///   counts per exploration,
/// * `sched.explore` — wall-time span per exploration.
struct SchedObs {
    registry: jtobs::Registry,
    explored: jtobs::Counter,
    pruned: jtobs::Counter,
    states: jtobs::Counter,
    outcomes: jtobs::Histogram,
    journal: jtobs::Journal,
}

impl SchedObs {
    fn new(registry: &jtobs::Registry) -> Self {
        SchedObs {
            registry: registry.clone(),
            explored: registry.counter("sched.interleave.explored"),
            pruned: registry.counter("sched.interleave.pruned"),
            states: registry.counter("sched.interleave.states"),
            outcomes: registry.histogram("sched.interleave.outcome_set_size"),
            journal: registry.journal(),
        }
    }

    fn record(&self, set: &OutcomeSet, pruned: u64) {
        self.explored.add(set.schedules_explored as u64);
        self.states.add(set.states_visited as u64);
        self.pruned.add(pruned);
        self.outcomes.record(set.distinct.len() as u64);
        self.journal.record(jtobs::EventKind::SchedExplore {
            states: set.states_visited as u64,
            schedules: set.schedules_explored as u64,
            distinct: set.distinct.len() as u64,
            truncated: set.truncated,
        });
    }
}

/// Explores the schedules of `program` under `config` and returns the
/// observed outcome set.
pub fn explore(program: &Program, config: Explore) -> OutcomeSet {
    explore_observed(program, config, None)
}

/// Like [`explore`], but also publishes `sched.interleave.*` metrics
/// (see `SchedObs`) into `registry`. Identical to [`explore`] when
/// the `telemetry` feature is off.
pub fn explore_with_registry(
    program: &Program,
    config: Explore,
    registry: &jtobs::Registry,
) -> OutcomeSet {
    let obs = if jtobs::ENABLED {
        Some(SchedObs::new(registry))
    } else {
        None
    };
    explore_observed(program, config, obs.as_ref())
}

fn explore_observed(program: &Program, config: Explore, obs: Option<&SchedObs>) -> OutcomeSet {
    let _span = obs.map(|o| o.registry.span("sched.explore"));
    let (set, pruned) = match config.random {
        Some((seed, trials)) => (explore_random(program, seed, trials), 0),
        None => explore_exhaustive(program, config),
    };
    if let Some(o) = obs {
        o.record(&set, pruned);
    }
    set
}

fn explore_exhaustive(program: &Program, config: Explore) -> (OutcomeSet, u64) {
    let mut distinct: BTreeSet<Outcome> = BTreeSet::new();
    let mut schedules = 0usize;
    let mut truncated = false;
    let mut pruned = 0u64;
    // Memoize visited states to prune converging interleavings.
    let mut seen_states: BTreeSet<State> = BTreeSet::new();
    let mut stack: Vec<State> = vec![State::initial(program)];

    while let Some(mut state) = stack.pop() {
        if config.local_step_reduction {
            state.drain_local_steps(program);
        }
        if !seen_states.insert(state.clone()) {
            pruned += 1;
            continue;
        }
        let runnable = state.runnable(program);
        if runnable.is_empty() {
            distinct.insert(state.outcome(program));
            schedules += 1;
            if schedules >= config.max_schedules {
                truncated = true;
                break;
            }
            continue;
        }
        for t in runnable {
            let mut next = state.clone();
            next.step(program, t);
            stack.push(next);
        }
    }

    let set = OutcomeSet {
        distinct: distinct.into_iter().collect(),
        schedules_explored: schedules,
        states_visited: seen_states.len(),
        truncated,
    };
    (set, pruned)
}

fn explore_random(program: &Program, seed: u64, trials: usize) -> OutcomeSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut distinct: BTreeSet<Outcome> = BTreeSet::new();
    // Every distinct state touched by any trial, and the scheduling
    // decisions (state → thread) actually taken. Sampling is complete —
    // `truncated: false` — only when every runnable thread of every
    // visited state was followed at least once; otherwise the trial
    // budget cut exploration off with branches still unexplored.
    let mut seen_states: BTreeSet<State> = BTreeSet::new();
    let mut taken: BTreeMap<State, BTreeSet<usize>> = BTreeMap::new();
    seen_states.insert(State::initial(program));
    for _ in 0..trials {
        let mut state = State::initial(program);
        loop {
            let runnable = state.runnable(program);
            if runnable.is_empty() {
                break;
            }
            let t = runnable[rng.gen_range(0..runnable.len())];
            taken.entry(state.clone()).or_default().insert(t);
            state.step(program, t);
            seen_states.insert(state.clone());
        }
        distinct.insert(state.outcome(program));
    }
    let truncated = seen_states.iter().any(|s| {
        let followed = taken.get(s);
        s.runnable(program)
            .iter()
            .any(|t| !followed.is_some_and(|f| f.contains(t)))
    });
    OutcomeSet {
        distinct: distinct.into_iter().collect(),
        schedules_explored: trials,
        states_visited: seen_states.len(),
        truncated,
    }
}

/// Executes one specific schedule (a sequence of thread indices) and
/// returns the outcome along with the executed event list
/// `(thread, instruction index)` — the input to
/// [`crate::outcome::happens_before`].
///
/// Scheduling entries for finished threads are skipped; the schedule is
/// extended round-robin if it ends before the program does.
pub fn run_schedule(program: &Program, schedule: &[usize]) -> (Outcome, Vec<(usize, usize)>) {
    let mut state = State::initial(program);
    let mut events = Vec::new();
    let mut queue: Vec<usize> = schedule.to_vec();
    let mut fallback = 0usize;
    loop {
        let runnable = state.runnable(program);
        if runnable.is_empty() {
            break;
        }
        let t = loop {
            match queue.first().copied() {
                Some(t) => {
                    queue.remove(0);
                    if runnable.contains(&t) {
                        break t;
                    }
                }
                None => {
                    let t = runnable[fallback % runnable.len()];
                    fallback += 1;
                    break t;
                }
            }
        };
        events.push((t, state.pcs[t]));
        state.step(program, t);
    }
    (state.outcome(program), events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{fig8_program, lost_update_program};

    #[test]
    fn fig8_has_three_observable_outcomes() {
        let outcomes = explore(&fig8_program(), Explore::exhaustive());
        let seen: Vec<i64> = outcomes
            .distinct
            .iter()
            .map(|o| o.values[0].1)
            .collect();
        assert_eq!(seen, vec![0, 1, 2]);
        assert!(!outcomes.truncated);
    }

    #[test]
    fn lost_update_yields_one_and_two() {
        let outcomes = explore(&lost_update_program(), Explore::exhaustive());
        let ns: Vec<i64> = outcomes.distinct.iter().map(|o| o.values[0].1).collect();
        assert_eq!(ns, vec![1, 2]);
    }

    #[test]
    fn reduction_preserves_outcomes() {
        for program in [fig8_program(), lost_update_program()] {
            let with = explore(&program, Explore::exhaustive());
            let without = explore(&program, Explore::exhaustive_unreduced());
            assert_eq!(with.distinct, without.distinct);
            assert!(
                with.states_visited <= without.states_visited,
                "reduction should not visit more states ({} > {})",
                with.states_visited,
                without.states_visited
            );
        }
    }

    #[test]
    fn single_thread_is_deterministic() {
        let p = crate::program::Program::new()
            .var("x", 0)
            .thread(
                "T",
                vec![
                    crate::program::Instr::Write {
                        var: "x".into(),
                        src: 5.into(),
                    },
                    crate::program::Instr::Read {
                        var: "x".into(),
                        reg: "r".into(),
                    },
                ],
            )
            .observe_var("x")
            .observe_reg("T", "r");
        let outcomes = explore(&p, Explore::exhaustive());
        assert_eq!(outcomes.distinct.len(), 1);
        assert!(outcomes.is_deterministic());
    }

    #[test]
    fn random_sampling_underapproximates_exhaustive() {
        let p = fig8_program();
        let exhaustive = explore(&p, Explore::exhaustive());
        let sampled = explore(&p, Explore::random(42, 200));
        for o in &sampled.distinct {
            assert!(exhaustive.distinct.contains(o));
        }
        // With 200 trials of a 3-outcome space, sampling finds them all.
        assert_eq!(sampled.distinct.len(), 3);
        // And the same seed reproduces the same set.
        let again = explore(&p, Explore::random(42, 200));
        assert_eq!(sampled.distinct, again.distinct);
        // Sampling counts the states it actually visited — never more
        // than an unreduced exhaustive walk reaches.
        let unreduced = explore(&p, Explore::exhaustive_unreduced());
        assert!(sampled.states_visited > 0);
        assert!(sampled.states_visited <= unreduced.states_visited);
        // 200 trials saturate every scheduling decision of this tiny
        // program, so the sample is provably complete…
        assert!(!sampled.truncated);
        // …while a single trial leaves branches unexplored.
        let starved = explore(&p, Explore::random(42, 1));
        assert!(starved.truncated);
        assert!(starved.states_visited > 0);
    }

    #[test]
    fn telemetry_counts_explored_and_pruned() {
        let registry = jtobs::Registry::new();
        // Unreduced lost-update exploration revisits converging states
        // (its two leading reads commute), so the memo actually prunes
        // and the counter is observable.
        let plain = explore(&lost_update_program(), Explore::exhaustive_unreduced());
        let observed = explore_with_registry(
            &lost_update_program(),
            Explore::exhaustive_unreduced(),
            &registry,
        );
        assert_eq!(plain, observed, "metrics must not perturb exploration");
        if jtobs::ENABLED {
            assert_eq!(
                registry.counter_value("sched.interleave.explored"),
                observed.schedules_explored as u64
            );
            assert_eq!(
                registry.counter_value("sched.interleave.states"),
                observed.states_visited as u64
            );
            assert!(registry.counter_value("sched.interleave.pruned") > 0);
            let sizes = registry
                .histogram_stats("sched.interleave.outcome_set_size")
                .unwrap();
            assert_eq!(sizes.count, 1);
            assert_eq!(sizes.max, observed.distinct.len() as u64);
        }
    }

    #[test]
    fn run_schedule_is_deterministic_per_schedule() {
        let p = fig8_program();
        let (o1, ev1) = run_schedule(&p, &[0, 1, 2]);
        let (o2, ev2) = run_schedule(&p, &[0, 1, 2]);
        assert_eq!(o1, o2);
        assert_eq!(ev1, ev2);
        assert_eq!(ev1.len(), 3);
        let (o3, _) = run_schedule(&p, &[2, 0, 1]);
        assert_ne!(o1, o3, "different schedules expose the race");
    }

    #[test]
    fn run_schedule_extends_short_schedules() {
        let p = lost_update_program();
        let (_, events) = run_schedule(&p, &[0]);
        assert_eq!(events.len(), p.total_instrs());
    }
}
