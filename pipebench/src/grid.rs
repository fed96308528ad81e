//! `asr-grid`: the ASR simulation path.
//!
//! A seeded layered graph: every layer holds one cell of each compliant
//! corpus block — `Counter`, `Fir`, `TrafficLight`, `Elevator`, `Scale`
//! and `Smooth` (native tier), `StageA` and `StageB` (stack-VM
//! fallback) — in a seeded order, each fed by a seeded `asr::stock`
//! combiner of two signals of the layer before and a clamp. The graph
//! also holds delay feedback from the last layer to the first, one
//! constructive delay-free cycle (two `select`s) and one nested
//! subsystem (a `CompositeBlock`). The composition is the same on every
//! seed; the seed picks the order, the wiring and the inputs.
//!
//! One op is a batch of instants under the default strategy. Outputs are
//! checked against the same graph with every JT block run by
//! `jtvm::interp::Interpreter`, built afresh in every run. The
//! interpreter is about 100× slower than the native tier, so the
//! reference replays the first `VERIFY_OPS` ops (the graph is stateful,
//! so it cannot skip ahead).

use crate::replica::{self, EvalClock, TierReplica, Timed};
use crate::trace::Tracer;
use crate::{
    peak_rss_mb, timed_setups, Config, Fault, LayerMetrics, Loop, Rng, RunResult, EMBED_SPANS,
};
use asr::block::BlockError;
use asr::fixpoint::FixpointStats;
use asr::prelude::*;
use jtlang::corpus;
use jtvm::engine::Engine;
use jtvm::interp::Interpreter;
use jtvm::io::PortDatum;
use std::sync::Mutex;
use std::time::Instant;

/// Instants per op.
const BATCH: usize = 256;
/// Layers of JT cells.
const LAYERS: usize = 3;
/// Set-ups per untraced run (each ~12 ms).
const SETUPS: usize = 9;
/// Untimed ops before the timed phase.
const WARMUP: usize = 8;
/// Ops whose outputs the interpreter reference replays.
const VERIFY_OPS: usize = 32;
/// Reactions of each stand-alone engine in the traced run.
const REPLICA_REACTS: usize = 2000;

/// The corpus blocks of the grid: name, source, class, constructor
/// arguments, input ports, output port used, input clamp.
#[derive(Debug, Clone, Copy)]
struct Kind {
    source: &'static str,
    class: &'static str,
    args: &'static [i64],
    inputs: usize,
    output: usize,
    clamp: (i64, i64),
}

const KINDS: [Kind; 8] = [
    Kind {
        source: corpus::COUNTER,
        class: "Counter",
        args: &[1000],
        inputs: 1,
        output: 0,
        clamp: (-100, 100),
    },
    Kind {
        source: corpus::FIR_FILTER,
        class: "Fir",
        args: &[],
        inputs: 1,
        output: 0,
        clamp: (-1000, 1000),
    },
    Kind {
        source: corpus::TRAFFIC_LIGHT,
        class: "TrafficLight",
        args: &[],
        inputs: 1,
        output: 0,
        clamp: (0, 1),
    },
    Kind {
        source: corpus::ELEVATOR,
        class: "Elevator",
        args: &[],
        inputs: 1,
        output: 0,
        clamp: (0, 255),
    },
    Kind {
        source: corpus::PURE_BLOCKS,
        class: "Scale",
        args: &[],
        inputs: 1,
        output: 0,
        clamp: (-1000, 1000),
    },
    Kind {
        source: corpus::PURE_BLOCKS,
        class: "Smooth",
        args: &[],
        inputs: 1,
        output: 0,
        clamp: (-1000, 1000),
    },
    Kind {
        source: corpus::FACTORY_BLOCKS,
        class: "StageA",
        args: &[],
        inputs: 1,
        output: 0,
        clamp: (-1000, 1000),
    },
    Kind {
        source: corpus::FACTORY_BLOCKS,
        class: "StageB",
        args: &[],
        inputs: 2,
        output: 1,
        clamp: (-1000, 1000),
    },
];

/// Makes the block of one corpus kind: embedded, or interpreted.
type MakeBlock<'a> = dyn FnMut(&Kind) -> Result<Box<dyn Block>, String> + 'a;

/// The seeded layout, shared by the measured graph, its `Parallel`
/// twin and the interpreter reference.
struct Layout {
    /// Per layer, per column: kind index, combiner, second operand.
    cells: Vec<Vec<(usize, u64, usize)>>,
    seed: u64,
}

impl Layout {
    fn new(seed: u64) -> Layout {
        let mut rng = Rng::new(seed, 4);
        let cells = (0..LAYERS)
            .map(|_| {
                let mut order: Vec<usize> = (0..KINDS.len()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i as u64 + 1) as usize);
                }
                order
                    .into_iter()
                    .map(|k| (k, rng.below(4), rng.below(64) as usize))
                    .collect()
            })
            .collect();
        Layout { cells, seed }
    }

    /// Inputs of instant `j` of op `op`.
    fn inputs(&self, op: usize, j: usize) -> Vec<Value> {
        let mut rng = Rng::new(self.seed ^ (op * BATCH + j) as u64, 5);
        vec![
            Value::int(rng.range(-200, 200)),
            Value::int(rng.range(-200, 200)),
        ]
    }

    /// Wires the graph. `jt` makes the block for a corpus kind; `clock`
    /// (traced runs) wraps every block in an eval timer.
    fn wire(&self, jt: &mut MakeBlock, clock: Option<&EvalClock>) -> Result<SystemBuilder, String> {
        let mut b = SystemBuilder::new("grid");
        let add = |b: &mut SystemBuilder, block: Box<dyn Block>| match clock {
            Some(c) => b.add_block(Timed::new(block, c)),
            None => b.add_boxed_block(block),
        };
        let link = |b: &mut SystemBuilder, from: Source, to: BlockId, port: usize| {
            b.connect(from, Sink::block(to, port))
                .map_err(|e| e.to_string())
        };
        let x0 = b.add_input("x0");
        let x1 = b.add_input("x1");
        let feedback = b.add_delay("feedback", Value::int(0));
        let mut prev = vec![Source::ext(x0), Source::ext(x1), Source::delay(feedback)];
        for (l, layer) in self.cells.iter().enumerate() {
            let mut next = Vec::new();
            for (c, &(k, combiner, other)) in layer.iter().enumerate() {
                let kind = &KINDS[k];
                let name = format!("c{l}_{c}");
                let comb: Box<dyn Block> = match combiner {
                    0 => Box::new(stock::add(name.clone() + "+")),
                    1 => Box::new(stock::sub(name.clone() + "-")),
                    2 => Box::new(stock::min(name.clone() + "min")),
                    _ => Box::new(stock::max(name.clone() + "max")),
                };
                let comb = add(&mut b, comb);
                link(&mut b, prev[c % prev.len()], comb, 0)?;
                link(&mut b, prev[other % prev.len()], comb, 1)?;
                let clamp = add(
                    &mut b,
                    Box::new(stock::clamp(name + "clamp", kind.clamp.0, kind.clamp.1)),
                );
                link(&mut b, Source::block(comb, 0), clamp, 0)?;
                let cell = add(&mut b, jt(kind)?);
                for port in 0..kind.inputs {
                    link(&mut b, Source::block(clamp, 0), cell, port)?;
                }
                next.push(Source::block(cell, kind.output));
            }
            match l {
                // The delay-free cycle: s1 = c ? a : s2, s2 = c ? s1 : b
                // settles for either value of c, but only because
                // `select` is non-strict.
                1 => {
                    let cond = add(&mut b, Box::new(stock::gt("cycle.cond")));
                    link(&mut b, next[0], cond, 0)?;
                    link(&mut b, next[1], cond, 1)?;
                    let s1 = add(&mut b, Box::new(stock::select("cycle.s1")));
                    let s2 = add(&mut b, Box::new(stock::select("cycle.s2")));
                    for s in [s1, s2] {
                        link(&mut b, Source::block(cond, 0), s, 0)?;
                    }
                    link(&mut b, next[2], s1, 1)?;
                    link(&mut b, Source::block(s2, 0), s1, 2)?;
                    link(&mut b, Source::block(s1, 0), s2, 1)?;
                    link(&mut b, next[3], s2, 2)?;
                    next.push(Source::block(s1, 0));
                }
                // The nested subsystem: clamp(2 * (a + b)).
                2 => {
                    let composite = add(&mut b, Box::new(nested()?));
                    link(&mut b, next[4], composite, 0)?;
                    link(&mut b, next[5], composite, 1)?;
                    next.push(Source::block(composite, 0));
                }
                _ => {}
            }
            prev = next;
        }
        let back = add(
            &mut b,
            Box::new(stock::clamp("feedback.clamp", -1000, 1000)),
        );
        link(&mut b, prev[0], back, 0)?;
        b.connect(Source::block(back, 0), Sink::delay(feedback))
            .map_err(|e| e.to_string())?;
        for (i, s) in prev.iter().enumerate() {
            let o = b.add_output(format!("y{i}"));
            b.connect(*s, Sink::ext(o)).map_err(|e| e.to_string())?;
        }
        Ok(b)
    }

    /// Wires and builds the graph without timers.
    fn build(&self, jt: &mut MakeBlock) -> Result<System, String> {
        self.wire(jt, None)?.build().map_err(|e| e.to_string())
    }
}

/// The nested subsystem.
fn nested() -> Result<CompositeBlock, String> {
    let mut b = SystemBuilder::new("nested");
    let (i0, i1) = (b.add_input("a"), b.add_input("b"));
    let sum = b.add_block(stock::add("nested.add"));
    let twice = b.add_block(stock::gain("nested.gain", 2));
    let clamp = b.add_block(stock::clamp("nested.clamp", -1000, 1000));
    let o = b.add_output("y");
    let wires = [
        (Source::ext(i0), Sink::block(sum, 0)),
        (Source::ext(i1), Sink::block(sum, 1)),
        (Source::block(sum, 0), Sink::block(twice, 0)),
        (Source::block(twice, 0), Sink::block(clamp, 0)),
        (Source::block(clamp, 0), Sink::ext(o)),
    ];
    for (from, to) in wires {
        b.connect(from, to).map_err(|e| e.to_string())?;
    }
    CompositeBlock::new(b.build().map_err(|e| e.to_string())?).map_err(|e| e.to_string())
}

/// A corpus class run by the tree-walking interpreter, with the
/// instant semantics of `sfr::embed::JtBlock` (strict, one reaction per
/// instant, committed on `tick`). The reference the grid is checked
/// against.
struct InterpBlock {
    name: String,
    arity: (usize, usize),
    engine: Mutex<Interpreter>,
    cache: Mutex<Option<(Vec<Value>, Vec<Value>)>>,
}

impl InterpBlock {
    fn new(kind: &Kind) -> Result<InterpBlock, String> {
        let program = jtlang::check_source(kind.source)?;
        let table = jtlang::resolve::resolve(&program).map_err(|e| e.to_string())?;
        let iface =
            sfr::extension::verify(&program, &table, kind.class).map_err(|e| e.to_string())?;
        let mut engine = Interpreter::new(program, kind.class).map_err(|e| e.to_string())?;
        let args: Vec<_> = kind
            .args
            .iter()
            .map(|&v| jtvm::value::RtValue::Int(v))
            .collect();
        engine.initialize(&args).map_err(|e| e.to_string())?;
        Ok(InterpBlock {
            name: kind.class.to_string(),
            arity: (iface.inputs, iface.outputs),
            engine: Mutex::new(engine),
            cache: Mutex::new(None),
        })
    }

    fn react(&self, inputs: &[Value]) -> Result<Vec<Value>, BlockError> {
        let ports = inputs
            .iter()
            .map(|v| match v.datum() {
                Some(Datum::Int(i)) => Ok(PortDatum::Int(*i)),
                Some(Datum::Bool(b)) => Ok(PortDatum::Int(i64::from(*b))),
                Some(Datum::Vec(v)) => Ok(PortDatum::Vec(v.clone())),
                None => Err(BlockError::new("port value must be present")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let outs = self
            .engine
            .lock()
            .expect("interpreter lock")
            .react(&ports)
            .map_err(|e| BlockError::new(e.to_string()))?;
        let mut values: Vec<Value> = outs
            .iter()
            .map(|d| match d {
                None => Value::Absent,
                Some(PortDatum::Int(i)) => Value::int(*i),
                Some(PortDatum::Vec(v)) => Value::vec(v.clone()),
            })
            .collect();
        values.resize(self.arity.1, Value::Absent);
        Ok(values)
    }
}

impl Block for InterpBlock {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_arity(&self) -> usize {
        self.arity.0
    }

    fn output_arity(&self) -> usize {
        self.arity.1
    }

    fn eval(&self, inputs: &[Value], outputs: &mut [Value]) -> Result<(), BlockError> {
        if inputs.iter().any(Value::is_unknown) {
            return Ok(());
        }
        if inputs.contains(&Value::Absent) {
            outputs.fill(Value::Absent);
            return Ok(());
        }
        let mut cache = self.cache.lock().expect("instant cache lock");
        let result = match cache.as_ref() {
            Some((seen, outs)) if seen == inputs => outs.clone(),
            Some(_) => return Err(BlockError::new("inputs changed within an instant")),
            None => {
                let outs = self.react(inputs)?;
                *cache = Some((inputs.to_vec(), outs.clone()));
                outs
            }
        };
        for (o, v) in outputs.iter_mut().zip(result) {
            *o = v;
        }
        Ok(())
    }

    fn tick(&mut self, inputs: &[Value]) -> Result<(), BlockError> {
        let cache = self.cache.get_mut().expect("instant cache lock");
        if cache.is_none() && inputs.iter().all(Value::is_known) && !inputs.contains(&Value::Absent)
        {
            self.react(inputs)?;
        }
        self.cache.get_mut().expect("instant cache lock").take();
        Ok(())
    }
}

/// Runs one op: the instants of `inputs` in turn. Traced runs go
/// through `eval_instant` + `commit` to read each instant's
/// `FixpointStats`.
fn batch(
    t: &mut Tracer,
    sys: &mut System,
    inputs: &[Vec<Value>],
    mut stats: Option<&mut Vec<FixpointStats>>,
) -> Result<Vec<Vec<Value>>, EvalError> {
    t.span("op", |t| {
        t.span("asr.batch", |_| {
            inputs
                .iter()
                .map(|x| match stats.as_deref_mut() {
                    None => sys.react(x),
                    Some(stats) => {
                        let sol = sys.eval_instant(x)?;
                        sys.commit(&sol)?;
                        stats.push(*sol.stats());
                        Ok(sys.outputs_of(&sol))
                    }
                })
                .collect()
        })
    })
}

/// Runs the workload.
///
/// # Errors
///
/// When a block cannot be embedded or the graph cannot be built.
pub fn run(cfg: &Config) -> Result<RunResult, String> {
    let layout = Layout::new(cfg.seed);
    let mut tracer = Tracer::new(cfg.trace);
    let clock = EvalClock::default();
    let mut tiers: Vec<&'static str> = Vec::new();
    let (mut sys, setup_s) = timed_setups(cfg, SETUPS, &mut tracer, |t| {
        tiers.clear();
        let mut embed = |kind: &Kind| -> Result<Box<dyn Block>, String> {
            let block = t
                .span("sfr.embed", |_| {
                    sfr::embed::embed(kind.source, kind.class, kind.args)
                })
                .map_err(|e| e.to_string())?;
            tiers.push(block.engine_tier());
            Ok(Box::new(block))
        };
        let builder = layout.wire(&mut embed, cfg.trace.then_some(&clock))?;
        t.span("asr.build", |_| builder.build())
            .map_err(|e| e.to_string())
    })?;

    // The traced run: the same graph under `Strategy::Parallel`, and a
    // stand-alone engine per corpus kind.
    let mut twin = None;
    let mut engines = Vec::new();
    if cfg.trace {
        let mut plain = |kind: &Kind| -> Result<Box<dyn Block>, String> {
            Ok(Box::new(
                sfr::embed::embed(kind.source, kind.class, kind.args).map_err(|e| e.to_string())?,
            ))
        };
        let mut par = layout.build(&mut plain)?;
        par.set_strategy(Strategy::Parallel {
            workers: crate::cores(),
        });
        twin = Some(par);
        for kind in &KINDS {
            engines.push((
                kind,
                replica::embed(&mut tracer, kind.source, kind.class, kind.args)?,
            ));
        }
    }

    let mut out = RunResult {
        correct: true,
        ..RunResult::default()
    };
    let mut lp = Loop::default();
    let mut recorded: Vec<Result<Vec<Vec<Value>>, String>> = Vec::new();
    let (mut stats, mut scratch) = (Vec::new(), Vec::new());
    let (mut eval_ns, mut par_ns, mut par_instants) = (0u64, 0u64, 0u64);
    let mut i = 0usize;
    while i < WARMUP || lp.more(cfg, 3) {
        let timed = i >= WARMUP;
        let traced = cfg.trace && i.is_multiple_of(2);
        tracer.set_recording(traced);
        tracer.set_op(Some(i as u64));
        clock.take();
        let inputs: Vec<Vec<Value>> = (0..BATCH).map(|j| layout.inputs(i, j)).collect();
        let mut op =
            |t: &mut Tracer| batch(t, &mut sys, &inputs, cfg.trace.then_some(&mut scratch));
        let result = if timed {
            lp.time(traced, || op(&mut tracer))
        } else {
            op(&mut tracer)
        };
        if timed && traced {
            eval_ns += clock.take().0;
            stats.append(&mut scratch);
        }
        scratch.clear();
        let result = result.map_err(|e| format!("op {i}: engine error: {e}"));
        if let (Some(par), Ok(staged)) = (twin.as_mut(), &result) {
            let t0 = Instant::now();
            let parallel: Result<Vec<_>, _> = inputs.iter().map(|x| par.react(x)).collect();
            par_ns += t0.elapsed().as_nanos() as u64;
            par_instants += BATCH as u64;
            match parallel {
                Ok(p) if p == *staged => {}
                Ok(_) => out.fault(
                    timed,
                    Fault::Wrong(format!("op {i}: Parallel differs from Staged")),
                ),
                Err(e) => out.fault(timed, Fault::Error(format!("op {i}: Parallel: {e}"))),
            }
        }
        if let Err(e) = &result {
            out.fault(timed, Fault::Error(e.clone()));
        }
        out.attempted += u64::from(timed);
        if i < VERIFY_OPS + WARMUP {
            recorded.push(result);
        }
        i += 1;
    }
    let peak = peak_rss_mb();
    verify(&layout, &recorded, &mut out);

    if cfg.trace {
        let mut m = LayerMetrics::default();
        m.set_spans(&tracer, &EMBED_SPANS);
        let n = stats.len().max(1) as f64;
        let instant_us = tracer.mean_ms("asr.batch") * 1e3 / BATCH as f64;
        m.set("asr.instant_us", instant_us);
        let block_us = eval_ns as f64 / n / 1e3;
        m.set("asr.block_eval_us", block_us);
        m.set("asr.sched_self_us", instant_us - block_us);
        m.set(
            "asr.block_evals_per_instant",
            stats.iter().map(|s| s.block_evals).sum::<usize>() as f64 / n,
        );
        m.set(
            "asr.steps_per_instant",
            stats.iter().map(|s| s.steps).sum::<usize>() as f64 / n,
        );
        m.set("asr.plan.levels", sys.plan().num_levels() as f64);
        m.set(
            "asr.plan.cyclic_strata",
            sys.plan().num_cyclic_strata() as f64,
        );
        m.set(
            "asr.parallel.instant_us",
            par_ns as f64 / par_instants.max(1) as f64 / 1e3,
        );
        m.set(
            "jtvm.tier.native_blocks",
            tiers.iter().filter(|&&t| t == "native").count() as f64,
        );
        m.set(
            "jtvm.tier.vm_blocks",
            tiers.iter().filter(|&&t| t != "native").count() as f64,
        );
        m.set(
            "jtlang.source_kb",
            KINDS.iter().map(|k| k.source.len()).sum::<usize>() as f64
                / KINDS.len() as f64
                / 1024.0,
        );
        let mut native = (0u64, 0u64, 0u64);
        let mut vm = (0u64, 0u64, 0u64);
        let mut code_bytes = 0usize;
        for (kind, engine) in &mut engines {
            let mut rng = Rng::new(cfg.seed, 6);
            let t0 = Instant::now();
            let mut steps = 0u64;
            for _ in 0..REPLICA_REACTS {
                let x = PortDatum::Int(rng.range(kind.clamp.0, kind.clamp.1));
                let ins = vec![x; kind.inputs];
                if let Err(e) = engine.engine().react(&ins) {
                    out.fault(false, Fault::Error(format!("{}: {e}", kind.class)));
                    break;
                }
                steps += engine.engine().last_cost().steps;
            }
            let ns = t0.elapsed().as_nanos() as u64;
            let acc = match engine {
                TierReplica::Native(vm) => {
                    code_bytes += vm.native_code().map_or(0, |c| c.encoded_size());
                    &mut native
                }
                TierReplica::Vm(_) => &mut vm,
            };
            *acc = (acc.0 + ns, acc.1 + steps, acc.2 + REPLICA_REACTS as u64);
        }
        m.set("jtvm.native.code_bytes", code_bytes as f64);
        m.set(
            "jtvm.native.ops_per_react",
            native.1 as f64 / native.2.max(1) as f64,
        );
        m.set(
            "jtvm.native.ns_per_op",
            native.0 as f64 / native.1.max(1) as f64,
        );
        m.set("jtvm.vm.steps_per_react", vm.1 as f64 / vm.2.max(1) as f64);
        m.set("jtvm.vm.ns_per_step", vm.0 as f64 / vm.1.max(1) as f64);
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

/// Replays the recorded ops on the interpreter-backed graph and compares
/// every instant's outputs.
fn verify(layout: &Layout, recorded: &[Result<Vec<Vec<Value>>, String>], out: &mut RunResult) {
    let mut interp =
        |kind: &Kind| -> Result<Box<dyn Block>, String> { Ok(Box::new(InterpBlock::new(kind)?)) };
    let mut reference = match layout.build(&mut interp) {
        Ok(sys) => sys,
        Err(e) => return out.fault(false, Fault::Wrong(format!("reference graph: {e}"))),
    };
    for (i, got) in recorded.iter().enumerate() {
        // An op that errored left the graph in an unknown state.
        let Ok(got) = got else { return };
        for (j, outs) in got.iter().enumerate() {
            match reference.react(&layout.inputs(i, j)) {
                Ok(want) if want == *outs => {}
                Ok(want) => {
                    return out.fault(
                        i >= WARMUP,
                        Fault::Wrong(format!(
                            "op {i} instant {j}: outputs {outs:?} != reference {want:?}"
                        )),
                    )
                }
                Err(e) => return out.fault(false, Fault::Wrong(format!("reference op {i}: {e}"))),
            }
        }
    }
}
