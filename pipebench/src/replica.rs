//! Traced replicas of the calls that `sfr` makes internally.
//!
//! `RefinementSession::check` and `sfr::embed::embed` are single public
//! calls, so spans around them alone cannot split their time by layer.
//! The functions here make the same sequence of public calls one by one
//! (front end, call graph, flow suite, policy analyses, rules, bounds,
//! lowering), each inside its own span. Traced runs call them next to
//! the real call, on the same input, outside the op's own span.

use crate::trace::Tracer;
use asr::block::{Block, BlockError, BlockState};
use asr::fixpoint::FixpointStats;
use asr::system::System;
use asr::trace::InstantRecord;
use asr::value::Value;
use jtanalysis::db::AnalysisDb;
use jtanalysis::flow::FlowReport;
use jtlang::ast::Program;
use jtlang::resolve::ClassTable;
use jtvm::engine::Engine;
use jtvm::native::NativeVm;
use jtvm::value::RtValue;
use jtvm::vm::CompiledVm;
use sfr::policy::{AnalysisContext, Policy};
use sfr::violation::Violation;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A program checked against the ASR policy, with everything needed to
/// re-verify the verdict's evidence.
pub struct Checked {
    /// The parsed program.
    pub program: Program,
    /// Its class table.
    pub table: ClassTable,
    /// The policy verdict.
    pub violations: Vec<Violation>,
    /// The flow suite's report, evidence included.
    pub flow: FlowReport,
}

impl Checked {
    /// Re-verifies every evidence derivation against the program.
    ///
    /// # Errors
    ///
    /// The first failing derivation.
    pub fn verify_evidence(&self) -> Result<(), String> {
        let evidence = self
            .flow
            .summary
            .evidence
            .iter()
            .chain(&self.flow.races.evidence);
        match jtanalysis::evidence::verify_all(&self.program, &self.table, evidence).first() {
            None => Ok(()),
            Some((i, e)) => Err(format!("evidence #{i} does not re-verify: {e}")),
        }
    }
}

/// Front end, call graph, flow suite through `db`, policy analyses and
/// rules — the work of `RefinementSession::replace_source` + `check`, or
/// of `Policy::check` when `db` is fresh — one span per step. The flow
/// step's span is `analyze_span`.
///
/// # Errors
///
/// The front end's message.
pub fn check(
    t: &mut Tracer,
    source: &str,
    db: &mut AnalysisDb,
    analyze_span: &'static str,
) -> Result<Checked, String> {
    let program = t
        .span("jtlang.parse", |_| jtlang::parse(source))
        .map_err(|e| e.to_string())?;
    let table = t
        .span("jtlang.resolve", |_| jtlang::resolve::resolve(&program))
        .map_err(|e| e.to_string())?;
    t.span("jtlang.typecheck", |_| {
        jtlang::types::check(&program, &table)
    })
    .map_err(|e| e.to_string())?;
    let graph = t.span("jtanalysis.callgraph", |_| {
        jtanalysis::callgraph::build(&program, &table)
    });
    let flow = t.span(analyze_span, |_| db.analyze(&program, &table, &graph));
    let cx = t.span("sfr.policy.analyses", |_| AnalysisContext {
        alloc: jtanalysis::alloc::analyze_with_graph(&program, &table, &graph),
        loops: jtanalysis::loops::analyze(&program),
        exposed: jtanalysis::visibility::analyze(&program),
        threads: jtanalysis::threads::analyze(&program, &table),
        blocking: jtanalysis::blocking::analyze(&program, &table),
        callgraph: graph,
        flow,
        program: &program,
        table: &table,
    });
    let violations = t.span("sfr.policy.rules", |_| {
        Policy::asr().check_with_context(&cx)
    });
    let AnalysisContext { flow, .. } = cx;
    Ok(Checked {
        program,
        table,
        violations,
        flow,
    })
}

/// The engine an embedded class runs on, built apart from its block so
/// its counters (`last_cost`, `encoded_size`) can be read.
pub enum TierReplica {
    /// Lowered to the native op-slot tier.
    Native(Box<NativeVm>),
    /// Declined by the lowerer; stack VM.
    Vm(Box<CompiledVm>),
}

impl TierReplica {
    /// The engine.
    pub fn engine(&mut self) -> &mut dyn Engine {
        match self {
            TierReplica::Native(e) => e.as_mut(),
            TierReplica::Vm(e) => e.as_mut(),
        }
    }
}

/// The steps of `sfr::embed::embed` for `class`, one span each: policy
/// check (`sfr.embed.check`, with the flow suite on a fresh db as
/// `jtanalysis.db.cold_analyze`), contract and WCET bounds
/// (`sfr.embed.bounds`) and native lowering (`jtvm.native.lower`, with a
/// stack-VM fallback when the lowerer declines).
///
/// # Errors
///
/// Any step's failure, as text.
pub fn embed(
    t: &mut Tracer,
    source: &str,
    class: &str,
    ctor_args: &[i64],
) -> Result<TierReplica, String> {
    let checked = t.span("sfr.embed.check", |t| {
        check(
            t,
            source,
            &mut AnalysisDb::new(),
            "jtanalysis.db.cold_analyze",
        )
    })?;
    if !checked.violations.is_empty() {
        return Err(format!(
            "{class}: {} policy violations",
            checked.violations.len()
        ));
    }
    let (program, table) = (checked.program, checked.table);
    t.span("sfr.embed.bounds", |_| {
        sfr::extension::verify(&program, &table, class).map_err(|e| e.to_string())?;
        Ok::<_, String>(jtanalysis::bounds::instruction_bounds(&program, &table))
    })?;
    let args: Vec<RtValue> = ctor_args.iter().map(|&v| RtValue::Int(v)).collect();
    let native = t.span("jtvm.native.lower", |_| {
        let mut vm = NativeVm::new(program.clone(), class).map_err(|e| e.to_string())?;
        vm.initialize(&args).map_err(|e| e.to_string())?;
        Ok::<_, String>(vm)
    })?;
    if native.reject_reason().is_none() {
        return Ok(TierReplica::Native(Box::new(native)));
    }
    let mut vm = CompiledVm::new(program, class).map_err(|e| e.to_string())?;
    vm.initialize(&args).map_err(|e| e.to_string())?;
    Ok(TierReplica::Vm(Box::new(vm)))
}

/// Time spent inside wrapped blocks' `eval`, shared by every wrapper of
/// one system.
#[derive(Debug, Clone, Default)]
pub struct EvalClock(Arc<(AtomicU64, AtomicU64)>);

impl EvalClock {
    /// `(total eval ns, eval calls)` since the last take; resets both.
    pub fn take(&self) -> (u64, u64) {
        (
            self.0 .0.swap(0, Ordering::Relaxed),
            self.0 .1.swap(0, Ordering::Relaxed),
        )
    }
}

/// Times every `eval` of the wrapped block into an [`EvalClock`];
/// otherwise transparent.
pub struct Timed {
    inner: Box<dyn Block>,
    clock: EvalClock,
}

impl Timed {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Block>, clock: &EvalClock) -> Timed {
        Timed {
            inner,
            clock: clock.clone(),
        }
    }
}

impl Block for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn input_arity(&self) -> usize {
        self.inner.input_arity()
    }

    fn output_arity(&self) -> usize {
        self.inner.output_arity()
    }

    fn eval(&self, inputs: &[Value], outputs: &mut [Value]) -> Result<(), BlockError> {
        let t0 = Instant::now();
        let r = self.inner.eval(inputs, outputs);
        // Relaxed: statistics only, read after the instant has joined.
        self.clock
            .0
             .0
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.clock.0 .1.fetch_add(1, Ordering::Relaxed);
        r
    }

    fn tick(&mut self, inputs: &[Value]) -> Result<(), BlockError> {
        self.inner.tick(inputs)
    }

    fn save_state(&self) -> BlockState {
        self.inner.save_state()
    }

    fn restore_state(&mut self, state: &BlockState) -> Result<(), BlockError> {
        self.inner.restore_state(state)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn take_subtrace(&mut self) -> Vec<InstantRecord> {
        self.inner.take_subtrace()
    }

    fn take_nested_stats(&self) -> FixpointStats {
        self.inner.take_nested_stats()
    }

    fn take_inner_system(&mut self) -> Option<System> {
        self.inner.take_inner_system()
    }
}
