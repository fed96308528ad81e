//! Ablation: the native reaction tier vs. the stack VM (DESIGN.md §10) —
//! the "Café JIT" row the paper's Table 1 hints at but cannot isolate.
//!
//! The restricted JPEG design satisfies every SFR policy rule, which is
//! exactly what licenses the partial-evaluating lowerer: the full block
//! grid unrolls, helper calls inline, and quantization/DCT table loads
//! fold to constants. The unrestricted design allocates during `run`, so
//! the lowerer must reject it and the tier selection falls back to the
//! stack VM — refinement is what *enables* compilation.
//!
//! Custom harness (no Criterion): one lowering of the restricted JPEG
//! takes seconds and produces a multi-megabyte op-slot array, so each
//! configuration is timed over a few whole reactions instead of
//! thousands of samples. Set `JT_BENCH_SMOKE=1` for a quick CI run
//! (smaller image, one reaction, relaxed speedup floor).

use jpegsys::image::GrayImage;
use jpegsys::jtgen;
use jpegsys::testimage;
use jtvm::engine::Engine;
use jtvm::native::NativeVm;
use jtvm::vm::CompiledVm;
use std::time::Instant;

fn main() {
    let smoke = std::env::var("JT_BENCH_SMOKE").is_ok();
    let (w, h, reactions, speedup_floor) = if smoke {
        (48, 48, 1, 1.5)
    } else {
        (testimage::PAPER_WIDTH, testimage::PAPER_HEIGHT, 3, 5.0)
    };
    let img = testimage::gray_test_image(w, h);
    let restricted = jtgen::restricted_source();
    let unrestricted = jtgen::unrestricted_source();
    let mut rows: Vec<bench::Row> = Vec::new();

    println!("\nAblation: native reaction tier vs. stack VM ({w}x{h} image, {reactions} reaction(s))");

    // Stack VM on the restricted design: the fallback tier's cost.
    let mut vm = CompiledVm::new(jtlang::parse(&restricted).unwrap(), "JpegRestricted").unwrap();
    vm.initialize(&[]).unwrap();
    let (vm_ns, vm_out) = time_reactions(&mut vm, &img, reactions);
    let vm_steps = vm.last_cost().steps;
    println!("  bytecode  react: {:>9.2} ms  steps={}", vm_ns / 1e6, vm_steps);
    rows.push(("restricted/bytecode/react".into(), vm_ns, "ns"));

    // Native tier on the restricted design. Lowering happens inside
    // initialize; time it separately — it is the tier's up-front cost,
    // the analog of Table 1's costlier restricted initialization.
    let mut native =
        NativeVm::new(jtlang::parse(&restricted).unwrap(), "JpegRestricted").unwrap();
    let t0 = Instant::now();
    native.initialize(&[]).unwrap();
    let lower_ns = t0.elapsed().as_nanos() as f64;
    assert!(
        native.reject_reason().is_none(),
        "restricted JPEG must be native-compilable: {:?}",
        native.reject_reason()
    );
    let code_bytes = native.native_code().expect("lowered").encoded_size();
    let (native_ns, native_out) = time_reactions(&mut native, &img, reactions);
    let native_ops = native.last_cost().steps;
    println!(
        "  native    react: {:>9.2} ms  ops={}  (lowering {:.2} s, {:.1} MB of op slots)",
        native_ns / 1e6,
        native_ops,
        lower_ns / 1e9,
        code_bytes as f64 / 1e6
    );
    rows.push(("restricted/native/react".into(), native_ns, "ns"));
    rows.push(("restricted/native/lowering".into(), lower_ns, "ns"));

    assert_eq!(vm_out, native_out, "native tier output diverges from the stack VM");
    assert!(
        native_ops < vm_steps,
        "partial evaluation must retire fewer ops than the VM executes steps"
    );
    let speedup = vm_ns / native_ns;
    println!("  speedup: {speedup:.2}x (floor {speedup_floor}x)");
    assert!(
        speedup >= speedup_floor,
        "native tier speedup {speedup:.2}x below the {speedup_floor}x floor"
    );

    // Unrestricted design: allocates in `run`, so the native tier must
    // reject it — and the stack VM fallback is unchanged by the new tier.
    let mut native_un =
        NativeVm::new(jtlang::parse(&unrestricted).unwrap(), "JpegUnrestricted").unwrap();
    native_un.initialize(&[]).unwrap();
    let reject = native_un
        .reject_reason()
        .expect("unrestricted JPEG must be rejected by the lowerer")
        .to_string();
    println!("  unrestricted: native tier rejects ({reject}); falls back to the stack VM");
    let mut vm_un =
        CompiledVm::new(jtlang::parse(&unrestricted).unwrap(), "JpegUnrestricted").unwrap();
    vm_un.initialize(&[]).unwrap();
    let (vm_un_ns, _) = time_reactions(&mut vm_un, &img, reactions);
    println!("  unrestricted bytecode react: {:>9.2} ms (fallback tier)", vm_un_ns / 1e6);
    rows.push(("unrestricted/bytecode/react".into(), vm_un_ns, "ns"));

    println!();
    bench::write_bench_json("ablation_native", &rows);
}

/// Times `reactions` round trips and returns (mean ns per reaction,
/// last output) — whole reactions, matching how Table 1 measures.
fn time_reactions(
    engine: &mut dyn Engine,
    img: &GrayImage,
    reactions: usize,
) -> (f64, (GrayImage, i64)) {
    let mut out = None;
    let t0 = Instant::now();
    for _ in 0..reactions {
        out = Some(jtgen::run_roundtrip(engine, img).expect("react"));
    }
    (
        t0.elapsed().as_nanos() as f64 / reactions as f64,
        out.expect("at least one reaction"),
    )
}
