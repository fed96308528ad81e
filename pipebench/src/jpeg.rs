//! `jpeg-embed`: compile once, react many times (paper Table 1).
//!
//! Set-up embeds the restricted JPEG design with `sfr::embed::embed`
//! (policy check, contract, WCET bound, native lowering) and wires the
//! block into an `asr::System`. One op is one reaction on a seeded
//! 130×135 grey frame, the paper's image size. Every output is compared
//! with `jpegsys::jtgen::native_reference` outside the timed phase.

use crate::replica::{self, EvalClock, TierReplica, Timed};
use crate::trace::Tracer;
use crate::{
    peak_rss_mb, timed_setups, Config, Fault, LayerMetrics, Loop, Rng, RunResult, EMBED_SPANS,
};
use asr::prelude::*;
use jpegsys::image::GrayImage;
use jpegsys::jtgen;
use jpegsys::testimage::{PAPER_HEIGHT, PAPER_WIDTH};
use jtvm::engine::Engine;
use jtvm::vm::CompiledVm;
use std::time::Instant;

/// Distinct frames per run, reacted in turn.
const FRAMES: usize = 8;
/// Set-ups per untraced run (each ~2 s, mostly native lowering).
const SETUPS: usize = 3;
/// Untimed ops before the timed phase.
const WARMUP: usize = 3;
/// Reactions of the stand-alone engines in the traced run.
const REPLICA_REACTS: usize = 8;
const VM_REACTS: usize = 2;
const PARALLEL_REACTS: usize = 4;

/// A seeded grey frame: a random gradient plus texture.
fn frame(rng: &mut Rng, w: usize, h: usize) -> GrayImage {
    let (gx, gy) = (rng.range(-3, 3), rng.range(-3, 3));
    let base = rng.range(40, 200);
    let samples = (0..w * h)
        .map(|i| {
            let (x, y) = ((i % w) as i64, (i / w) as i64);
            (base + gx * (x - w as i64 / 2) / 2 + gy * (y - h as i64 / 2) / 2 + rng.range(-24, 24))
                .clamp(0, 255)
        })
        .collect();
    GrayImage::from_samples(w, h, samples)
}

/// The block's input ports: pixels, width, height.
fn inputs(img: &GrayImage) -> Vec<Value> {
    vec![
        Value::vec(img.samples().to_vec()),
        Value::int(img.width() as i64),
        Value::int(img.height() as i64),
    ]
}

/// Compares a reaction's outputs (image port, error port) with the
/// reference.
fn check(outs: &[Value], want: &(GrayImage, i64)) -> Result<(), String> {
    let n = want.0.samples().len();
    let image = outs.first().and_then(Value::datum).and_then(Datum::as_vec);
    match image {
        Some(v) if v.len() >= n && v[..n] == *want.0.samples() => {}
        _ => return Err("reconstructed image differs from the reference".into()),
    }
    match outs.get(1).and_then(Value::as_int) {
        Some(e) if e == want.1 => Ok(()),
        got => Err(format!("error sum {got:?} != reference {}", want.1)),
    }
}

/// Wires `block` into a one-block system: three inputs, two outputs.
fn system(block: Box<dyn Block>) -> Result<System, String> {
    let mut b = SystemBuilder::new("jpeg");
    let ins: Vec<_> = ["pixels", "width", "height"]
        .iter()
        .map(|n| b.add_input(*n))
        .collect();
    let blk = b.add_boxed_block(block);
    for (port, id) in ins.into_iter().enumerate() {
        b.connect(Source::ext(id), Sink::block(blk, port))
            .map_err(|e| e.to_string())?;
    }
    for (port, name) in ["image", "error"].iter().enumerate() {
        let o = b.add_output(*name);
        b.connect(Source::block(blk, port), Sink::ext(o))
            .map_err(|e| e.to_string())?;
    }
    b.build().map_err(|e| e.to_string())
}

/// Runs the workload.
///
/// # Errors
///
/// When the design cannot be embedded or wired.
pub fn run(cfg: &Config) -> Result<RunResult, String> {
    let (w, h) = if cfg.smoke {
        (24, 16)
    } else {
        (PAPER_WIDTH, PAPER_HEIGHT)
    };
    let mut tracer = Tracer::new(cfg.trace);
    let clock = EvalClock::default();
    let ((mut sys, images, frames, tier), setup_s) = timed_setups(cfg, SETUPS, &mut tracer, |t| {
        let mut rng = Rng::new(cfg.seed, 3);
        let images: Vec<GrayImage> = (0..FRAMES).map(|_| frame(&mut rng, w, h)).collect();
        let frames: Vec<Vec<Value>> = images.iter().map(inputs).collect();
        let block = t
            .span("sfr.embed", |_| {
                sfr::embed::embed(&jtgen::restricted_source(), "JpegRestricted", &[])
            })
            .map_err(|e| e.to_string())?;
        let tier = block.engine_tier();
        let block: Box<dyn Block> = if cfg.trace {
            Box::new(Timed::new(Box::new(block), &clock))
        } else {
            Box::new(block)
        };
        Ok((
            t.span("asr.build", |_| system(block))?,
            images,
            frames,
            tier,
        ))
    })?;
    let references: Vec<(GrayImage, i64)> = images.iter().map(jtgen::native_reference).collect();
    // The traced run also embeds step by step, for the layer split and
    // a stand-alone engine whose counters it can read.
    let engine = if cfg.trace {
        Some(replica::embed(
            &mut tracer,
            &jtgen::restricted_source(),
            "JpegRestricted",
            &[],
        )?)
    } else {
        None
    };

    let mut out = RunResult {
        correct: true,
        ..RunResult::default()
    };
    let mut lp = Loop::default();
    let mut stats = Vec::new();
    let mut eval_ns = 0u64;
    let mut i = 0usize;
    while i < WARMUP || lp.more(cfg, 2 * FRAMES) {
        let k = i % FRAMES;
        let timed = i >= WARMUP;
        let traced = cfg.trace && i.is_multiple_of(2);
        tracer.set_recording(traced);
        tracer.set_op(Some(i as u64));
        clock.take();
        let mut op = |t: &mut Tracer| {
            if !cfg.trace {
                return sys.react(&frames[k]).map(|o| (o, None));
            }
            t.span("op", |t| {
                let sol = t.span("asr.instant", |_| {
                    let sol = sys.eval_instant(&frames[k])?;
                    sys.commit(&sol)?;
                    Ok::<_, EvalError>(sol)
                })?;
                Ok((sys.outputs_of(&sol), Some(*sol.stats())))
            })
        };
        let result = if timed {
            lp.time(traced, || op(&mut tracer))
        } else {
            op(&mut tracer)
        };
        if timed && traced {
            eval_ns += clock.take().0;
        }
        let fault = match result {
            Err(e) => Some(Fault::Error(format!("op {i}: engine error: {e}"))),
            Ok((outs, s)) => {
                if timed && traced {
                    stats.extend(s);
                }
                check(&outs, &references[k])
                    .err()
                    .map(|e| Fault::Wrong(format!("op {i}: {e}")))
            }
        };
        if let Some(fault) = fault {
            out.fault(timed, fault);
        }
        out.attempted += u64::from(timed);
        i += 1;
    }
    let peak = peak_rss_mb();

    if let Some(mut engine) = engine {
        let mut m = LayerMetrics::default();
        m.set_spans(&tracer, &EMBED_SPANS);
        m.set(
            "jtlang.source_kb",
            jtgen::restricted_source().len() as f64 / 1024.0,
        );
        m.set(
            "jtvm.tier.native_blocks",
            f64::from(u8::from(tier == "native")),
        );
        m.set("jtvm.tier.vm_blocks", f64::from(u8::from(tier != "native")));
        let n = stats.len().max(1) as f64;
        let instant_us = tracer.mean_ms("asr.instant") * 1e3;
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

        // The stand-alone engines react the same frames; their outputs
        // are checked too.
        let mut problems = Vec::new();
        let (ns, steps) = react_engine(
            engine.engine(),
            &images,
            &references,
            REPLICA_REACTS,
            &mut problems,
        );
        if let TierReplica::Native(vm) = &engine {
            m.set(
                "jtvm.native.ops_per_react",
                steps as f64 / REPLICA_REACTS as f64,
            );
            m.set("jtvm.native.ns_per_op", ns as f64 / steps.max(1) as f64);
            m.set(
                "jtvm.native.code_bytes",
                vm.native_code().map_or(0, |c| c.encoded_size()) as f64,
            );
        }
        let program = jtlang::check_source(&jtgen::restricted_source())?;
        let mut vm = CompiledVm::new(program, "JpegRestricted").map_err(|e| e.to_string())?;
        vm.initialize(&[]).map_err(|e| e.to_string())?;
        let (ns, steps) = react_engine(&mut vm, &images, &references, VM_REACTS, &mut problems);
        m.set("jtvm.vm.steps_per_react", steps as f64 / VM_REACTS as f64);
        m.set("jtvm.vm.ns_per_step", ns as f64 / steps.max(1) as f64);

        sys.set_strategy(Strategy::Parallel {
            workers: crate::cores(),
        });
        let t0 = Instant::now();
        for k in 0..PARALLEL_REACTS {
            match sys.react(&frames[k % FRAMES]) {
                Ok(outs) => {
                    if let Err(e) = check(&outs, &references[k % FRAMES]) {
                        problems.push(format!("parallel: {e}"));
                    }
                }
                Err(e) => problems.push(format!("parallel: {e}")),
            }
        }
        m.set(
            "asr.parallel.instant_us",
            t0.elapsed().as_secs_f64() * 1e6 / PARALLEL_REACTS as f64,
        );
        for p in problems {
            out.fault(false, Fault::Wrong(p));
        }
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

/// Reacts `engine` on `n` frames in turn, checking each output; returns
/// `(total ns, total steps)`.
fn react_engine(
    engine: &mut dyn Engine,
    images: &[GrayImage],
    references: &[(GrayImage, i64)],
    n: usize,
    problems: &mut Vec<String>,
) -> (u64, u64) {
    let (mut ns, mut steps) = (0u64, 0u64);
    for k in 0..n {
        let t0 = Instant::now();
        let result = jtgen::run_roundtrip(engine, &images[k % images.len()]);
        ns += t0.elapsed().as_nanos() as u64;
        steps += engine.last_cost().steps;
        match result {
            Ok(got) if got == references[k % images.len()] => {}
            Ok(_) => problems.push(format!(
                "{}: output differs from the reference",
                engine.name()
            )),
            Err(e) => problems.push(format!("{}: {e}", engine.name())),
        }
    }
    (ns, steps)
}
