//! Ablation: parallel plan execution (DESIGN.md §6).
//!
//! `Strategy::Parallel` evaluates each level of the compiled plan — the
//! strata at equal depth in the condensation DAG, which are mutually
//! independent by construction — on a pool of worker threads, and is
//! bit-identical to `Strategy::Staged` (signals *and* `FixpointStats`;
//! asserted here and by the asr property suite). What changes is wall
//! time, and only when the blocks are expensive enough to amortize the
//! per-level fan-out: the report prints staged vs parallel timings on
//! wide topologies built from compute-heavy lifted blocks, plus a
//! cheap-block control where parallelism should *not* pay.

use asr::prelude::*;
use asr::stock::lift;
use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

/// A 1-in/1-out block that burns `rounds` of integer mixing per eval —
/// the stand-in for a genuinely expensive reaction (a filter tap, a
/// DCT, …) whose cost dwarfs the scheduler's bookkeeping.
fn heavy(name: impl Into<String>, rounds: u32) -> impl Block {
    lift(name, 1, 1, move |ins| {
        let mut x = ins[0].as_int().unwrap_or(1) as u64 | 1;
        for _ in 0..rounds {
            // xorshift64* — cheap, unvectorizable, dependency-chained.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
        }
        Ok(vec![Datum::Int((x as i64).rem_euclid(1_000_003))])
    })
}

/// One maximally wide diamond: the input fans out to `width` heavy
/// blocks (a single level of independent work) whose outputs reconverge
/// through a chain of adds.
fn wide_diamond(width: usize, rounds: u32) -> System {
    let mut b = SystemBuilder::new(format!("wide{width}"));
    let x = b.add_input("x");
    let arms: Vec<_> = (0..width)
        .map(|k| {
            let id = b.add_block(heavy(format!("h{k}"), rounds));
            b.connect(Source::ext(x), Sink::block(id, 0)).unwrap();
            Source::block(id, 0)
        })
        .collect();
    let mut acc = arms[0];
    for (k, arm) in arms.iter().enumerate().skip(1) {
        let j = b.add_block(stock::add(format!("j{k}")));
        b.connect(acc, Sink::block(j, 0)).unwrap();
        b.connect(*arm, Sink::block(j, 1)).unwrap();
        acc = Source::block(j, 0);
    }
    let o = b.add_output("o");
    b.connect(acc, Sink::ext(o)).unwrap();
    b.build().unwrap()
}

/// A `width`×`depth` grid with neighbor reconvergence: every layer is a
/// wide level of heavy blocks, and between layers each column is summed
/// with its right neighbor (wrap-around), so levels alternate
/// heavy-wide / add-wide and no column can be evaluated in isolation.
fn grid(width: usize, depth: usize, rounds: u32) -> System {
    let mut b = SystemBuilder::new(format!("grid{width}x{depth}"));
    let x = b.add_input("x");
    let mut cols: Vec<Source> = vec![Source::ext(x); width];
    for layer in 0..depth {
        let heavies: Vec<Source> = (0..width)
            .map(|k| {
                let id = b.add_block(heavy(format!("h{layer}_{k}"), rounds));
                b.connect(cols[k], Sink::block(id, 0)).unwrap();
                Source::block(id, 0)
            })
            .collect();
        cols = (0..width)
            .map(|k| {
                let j = b.add_block(stock::add(format!("m{layer}_{k}")));
                b.connect(heavies[k], Sink::block(j, 0)).unwrap();
                b.connect(heavies[(k + 1) % width], Sink::block(j, 1)).unwrap();
                Source::block(j, 0)
            })
            .collect();
    }
    let o = b.add_output("o");
    b.connect(cols[0], Sink::ext(o)).unwrap();
    b.build().unwrap()
}

type Topology = (&'static str, Box<dyn Fn() -> System>);

fn topologies() -> [Topology; 3] {
    [
        ("wide-32·heavy", Box::new(|| wide_diamond(32, 20_000))),
        ("grid-8x8·heavy", Box::new(|| grid(8, 8, 20_000))),
        // Control: the same grid with trivial blocks — fan-out overhead
        // with nothing to amortize it, so parallel should not win.
        ("grid-8x8·cheap", Box::new(|| grid(8, 8, 1))),
    ]
}

fn strategies() -> [(&'static str, Strategy); 4] {
    [
        ("staged", Strategy::Staged),
        ("parallel-2", Strategy::Parallel { workers: 2 }),
        ("parallel-4", Strategy::Parallel { workers: 4 }),
        ("parallel-8", Strategy::Parallel { workers: 8 }),
    ]
}

fn timed_instant(sys: &System, inputs: &[Value], reps: u32) -> (f64, InstantSolution) {
    let mut best = f64::INFINITY;
    let mut sol = sys.eval_instant(inputs).expect("instant");
    for _ in 0..reps {
        let start = Instant::now();
        sol = sys.eval_instant(inputs).expect("instant");
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, sol)
}

fn print_report() {
    println!("\nAblation: staged vs parallel wall time per instant (best of 10)");
    println!(
        "{:>16} {:>12} {:>12} {:>12} {:>12}  bit-identical",
        "topology", "staged", "par-2", "par-4", "par-8"
    );
    let inputs = [Value::int(7)];
    for (name, make) in &topologies() {
        let mut times = Vec::new();
        let mut identical = true;
        let mut reference: Option<InstantSolution> = None;
        for (_, strat) in strategies() {
            let mut sys = make();
            sys.set_strategy(strat);
            let (t, sol) = timed_instant(&sys, &inputs, 10);
            match &reference {
                None => reference = Some(sol),
                Some(r) => {
                    identical &=
                        r.signals() == sol.signals() && r.stats() == sol.stats();
                }
            }
            times.push(t);
        }
        print!("{:>16} {:>10.2}ms", name, times[0] * 1e3);
        for t in &times[1..] {
            print!(" {:>6.2}ms ×{:.1}", t * 1e3, times[0] / t);
        }
        println!("  {}", if identical { "yes" } else { "NO — BUG" });
        assert!(identical, "parallel diverged from staged on {name}");
    }
    println!("(speedup shown as ×staged/parallel; cheap rows should hover near ×1 or below)\n");
}

fn bench_parallel(c: &mut Criterion) {
    print_report();
    let mut group = c.benchmark_group("ablation_parallel");
    for (name, make) in &topologies() {
        for (label, strat) in strategies() {
            let mut sys = make();
            sys.set_strategy(strat);
            group.bench_function(BenchmarkId::new(label, *name), |b| {
                b.iter(|| black_box(sys.eval_instant(&[Value::int(7)]).expect("instant")))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);

fn main() {
    benches();
    bench::write_bench_json("ablation_parallel", &bench::criterion_rows());
}
