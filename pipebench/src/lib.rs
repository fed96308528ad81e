//! End-to-end and per-layer benchmark of the JT pipeline:
//! `jtlang` front end → `jtanalysis` incremental db → `sfr` policy,
//! session and embedding → `jtvm` native and stack-VM tiers → `asr`
//! instants. Three workloads ([`Workload`]) drive it through public
//! APIs only; see README.md for what each one measures and why.

pub mod edit;
pub mod grid;
pub mod jpeg;
pub mod replica;
pub mod trace;

use std::time::{Duration, Instant};
use trace::Tracer;

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-method edits of a 1024-method program, re-checked warm.
    EditRecheck,
    /// The restricted JPEG design, embedded once and reacted per frame.
    JpegEmbed,
    /// A layered ASR graph of embedded corpus blocks, run in batches.
    AsrGrid,
}

impl Workload {
    /// Every workload, in README order.
    pub const ALL: [Workload; 3] = [
        Workload::EditRecheck,
        Workload::JpegEmbed,
        Workload::AsrGrid,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EditRecheck => "edit-recheck",
            Workload::JpegEmbed => "jpeg-embed",
            Workload::AsrGrid => "asr-grid",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is made.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Tiny inputs and a fixed handful of ops, every check on.
    pub smoke: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in BENCHMARK.json.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Timed ops attempted.
    pub attempted: u64,
    /// Timed ops that raised an error or produced a wrong output.
    pub failed: u64,
    /// True unless some output disagreed with its reference.
    pub correct: bool,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The first few failure messages, for the log.
    pub failures: Vec<String>,
    /// Chrome trace JSON and span ledger of a traced run.
    pub trace: Option<(String, String)>,
}

impl RunResult {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Names of the end-to-end metrics, reported by every untraced run.
pub const END_TO_END: [&str; 5] = [
    "throughput_ops_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "setup_s",
    "peak_rss_mb",
];

/// Names of the per-layer metrics, reported by every traced run. A
/// layer that does no work on a workload reports 0 (README.md lists
/// which layers work on which workload).
pub const PER_LAYER: [&str; 46] = [
    "jtlang.parse_ms",
    "jtlang.resolve_ms",
    "jtlang.typecheck_ms",
    "jtlang.source_kb",
    "jtanalysis.callgraph_ms",
    "jtanalysis.db.analyze_ms",
    "jtanalysis.db.tail_ms",
    "jtanalysis.db.cold_analyze_ms",
    "jtanalysis.db.recomputed",
    "jtanalysis.db.invalidated",
    "jtanalysis.db.scc_misses",
    "jtanalysis.db.demand_misses",
    "jtanalysis.db.pt_constraints_retracted",
    "jtanalysis.db.pt_constraints_added",
    "jtanalysis.db.hit_ratio",
    "sfr.policy.analyses_ms",
    "sfr.policy.rules_ms",
    "sfr.violations",
    "sfr.session.replace_source_ms",
    "sfr.session.check_ms",
    "sfr.embed.check_ms",
    "sfr.embed.bounds_ms",
    "sfr.embed_ms",
    "jtvm.native.lower_ms",
    "jtvm.native.code_bytes",
    "jtvm.native.ops_per_react",
    "jtvm.native.ns_per_op",
    "jtvm.vm.steps_per_react",
    "jtvm.vm.ns_per_step",
    "jtvm.tier.native_blocks",
    "jtvm.tier.vm_blocks",
    "asr.build_ms",
    "asr.instant_us",
    "asr.block_eval_us",
    "asr.sched_self_us",
    "asr.block_evals_per_instant",
    "asr.steps_per_instant",
    "asr.plan.levels",
    "asr.plan.cyclic_strata",
    "asr.parallel.instant_us",
    "trace.ops",
    "trace.op_p50_ms",
    "trace.untraced_op_p50_ms",
    "trace.overhead_ms",
    "trace.overhead_pct",
    "trace.spans",
];

/// `(metric, span)` pairs of the workloads that embed JT blocks, whose
/// spans come from set-up and from `replica::embed`.
pub const EMBED_SPANS: [(&str, &str); 13] = [
    ("jtlang.parse_ms", "jtlang.parse"),
    ("jtlang.resolve_ms", "jtlang.resolve"),
    ("jtlang.typecheck_ms", "jtlang.typecheck"),
    ("jtanalysis.callgraph_ms", "jtanalysis.callgraph"),
    (
        "jtanalysis.db.cold_analyze_ms",
        "jtanalysis.db.cold_analyze",
    ),
    ("sfr.policy.analyses_ms", "sfr.policy.analyses"),
    ("sfr.policy.rules_ms", "sfr.policy.rules"),
    ("sfr.embed.check_ms", "sfr.embed.check"),
    ("sfr.embed.bounds_ms", "sfr.embed.bounds"),
    ("sfr.embed_ms", "sfr.embed"),
    ("jtvm.native.lower_ms", "jtvm.native.lower"),
    ("asr.build_ms", "asr.build"),
    ("asr.instant_us", "asr.instant"),
];

/// Unit of a per-layer metric, derived from its name.
pub fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_ns") || name.ends_with("ns_per_op") || name.ends_with("ns_per_step")
    {
        "ns"
    } else if name.ends_with("_kb") {
        "KiB"
    } else if name.ends_with("_bytes") {
        "bytes"
    } else if name.ends_with("_ratio") {
        "ratio"
    } else if name.ends_with("_pct") {
        "%"
    } else {
        "count"
    }
}

/// Runs one workload as configured.
///
/// # Errors
///
/// A set-up failure (the inputs could not be built at all); failures of
/// single ops are counted in the result instead.
pub fn run(cfg: &Config) -> Result<RunResult, String> {
    match cfg.workload {
        Workload::EditRecheck => edit::run(cfg),
        Workload::JpegEmbed => jpeg::run(cfg),
        Workload::AsrGrid => grid::run(cfg),
    }
}

/// splitmix64: the only source of randomness of the generated inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and input stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical cores of the host.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Times `setups` independent set-ups (one in a traced or smoke run,
/// which do not need `setup_s`) and keeps the last one; returns it with
/// the median set-up time.
///
/// # Errors
///
/// The first set-up failure.
pub fn timed_setups<S>(
    cfg: &Config,
    setups: usize,
    tracer: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> Result<S, String>,
) -> Result<(S, f64), String> {
    let n = if cfg.trace || cfg.smoke { 1 } else { setups };
    let mut secs = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t0 = Instant::now();
        let s = setup(tracer)?;
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(s);
    }
    Ok((last.expect("at least one set-up"), median(&secs)))
}

/// Why an op failed.
#[derive(Debug, Clone)]
pub enum Fault {
    /// A layer returned an error.
    Error(String),
    /// The op's output disagrees with its reference.
    Wrong(String),
}

/// The closed loop: one client, the next op issued when the previous
/// one returned. Collects per-op latency and the loop's wall time.
#[derive(Debug, Default)]
pub struct Loop {
    /// Latency of each timed op, in ms, in issue order.
    latency_ms: Vec<f64>,
    /// Whether each timed op ran with spans recorded.
    traced: Vec<bool>,
    started: Option<Instant>,
    wall: Duration,
}

impl Loop {
    /// Whether another op should be issued: until `seconds` of wall
    /// time (or `smoke_ops` ops in smoke mode).
    pub fn more(&mut self, cfg: &Config, smoke_ops: usize) -> bool {
        let t = *self.started.get_or_insert_with(Instant::now);
        self.wall = t.elapsed();
        if cfg.smoke {
            self.latency_ms.len() < smoke_ops
        } else {
            self.wall.as_secs_f64() < cfg.seconds
        }
    }

    /// Times one op.
    pub fn time<T>(&mut self, traced: bool, op: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = op();
        self.latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.traced.push(traced);
        out
    }

    /// Number of timed ops so far.
    pub fn ops(&self) -> usize {
        self.latency_ms.len()
    }

    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(&self, setup_s: f64, peak_rss_mb: f64, out: &mut RunResult) {
        let mut sorted = self.latency_ms.clone();
        sorted.sort_by(f64::total_cmp);
        out.push(
            "throughput_ops_s",
            self.ops() as f64 / self.wall.as_secs_f64().max(1e-9),
            "ops/s",
        );
        out.push("latency_p50_ms", quantile(&sorted, 0.5), "ms");
        out.push("latency_p90_ms", quantile(&sorted, 0.9), "ms");
        out.push("setup_s", setup_s, "s");
        out.push("peak_rss_mb", peak_rss_mb, "MB");
    }

    /// The tracing-overhead metrics of a traced run, which alternates
    /// traced and untraced ops.
    pub fn overhead(&self, tracer: &Tracer, out: &mut LayerMetrics) {
        let pick = |want: bool| -> Vec<f64> {
            self.latency_ms
                .iter()
                .zip(&self.traced)
                .filter(|(_, &t)| t == want)
                .map(|(&l, _)| l)
                .collect()
        };
        let traced = median(&pick(true));
        let untraced = median(&pick(false));
        out.set("trace.ops", self.ops() as f64);
        out.set("trace.op_p50_ms", traced);
        out.set("trace.untraced_op_p50_ms", untraced);
        out.set("trace.overhead_ms", traced - untraced);
        out.set(
            "trace.overhead_pct",
            if untraced > 0.0 {
                (traced - untraced) / untraced * 100.0
            } else {
                0.0
            },
        );
        out.set("trace.spans", tracer.spans().len() as f64);
    }
}

/// The per-layer metrics of a traced run, every name of [`PER_LAYER`]
/// present (0 until set).
#[derive(Debug, Clone)]
pub struct LayerMetrics(Vec<(&'static str, f64)>);

impl Default for LayerMetrics {
    fn default() -> Self {
        LayerMetrics(PER_LAYER.iter().map(|&n| (n, 0.0)).collect())
    }
}

impl LayerMetrics {
    /// Sets `name`, which must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        slot.1 = value;
    }

    /// Sets each `(metric, span)` metric to the mean duration of the
    /// spans of that name, converted from the ledger's ms to the
    /// metric's unit.
    pub fn set_spans(&mut self, tracer: &Tracer, pairs: &[(&str, &str)]) {
        for (metric, span) in pairs {
            let ms = tracer.mean_ms(span);
            self.set(
                metric,
                if layer_unit(metric) == "us" {
                    ms * 1e3
                } else {
                    ms
                },
            );
        }
    }

    /// Moves the metrics into `out`.
    pub fn finish(self, out: &mut RunResult) {
        for (name, value) in self.0 {
            out.push(name, value, layer_unit(name));
        }
    }
}

impl RunResult {
    /// Counts a fault: a timed op counts as failed, and a wrong output
    /// (timed or not) makes the run incorrect.
    pub fn fault(&mut self, timed: bool, fault: Fault) {
        let message = match fault {
            Fault::Error(m) => m,
            Fault::Wrong(m) => {
                self.correct = false;
                m
            }
        };
        self.failed += u64::from(timed);
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }
}
