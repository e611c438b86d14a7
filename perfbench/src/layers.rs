//! Per-layer metrics of the traced run: standalone replays of single
//! layers on the workload's own inputs, and the serve pool's own
//! counters over the timed phase.

use std::time::{Duration, Instant};

use rbnn_binary::BinaryNetwork;
use rbnn_graph::ExecPlan;
use rbnn_rram::energy::{sense_energy_nj, EnergyParams};
use rbnn_rram::{EngineConfig, NetworkEngine};
use rbnn_serve::{ServeConfig, Server, StatsSnapshot};

use crate::{median, metric, trace, Measured, Metric};

/// Least time each standalone replay loop runs for.
const REPLAY_TIME: Duration = Duration::from_millis(300);

/// Smallest plan the serve workers compile (their `MIN_PLAN_BATCH`).
const SERVE_MIN_PLAN: usize = 16;

/// Calls `step` (which returns the samples it processed), each call in a
/// span named `name`, until [`REPLAY_TIME`] has passed; returns
/// microseconds per sample.
pub fn replay_us_per_sample(name: &'static str, mut step: impl FnMut() -> usize) -> f64 {
    let t = Instant::now();
    let mut samples = 0usize;
    while t.elapsed() < REPLAY_TIME {
        samples += trace::span(name, &mut step);
    }
    t.elapsed().as_secs_f64() * 1e6 / samples.max(1) as f64
}

/// XNOR words one sample streams through: per layer, outputs times input
/// words. Computed from the layer shapes, not counted.
fn xnor_words_per_sample(net: &BinaryNetwork) -> usize {
    net.layers()
        .iter()
        .map(|l| l.out_features() * l.in_features().div_ceil(64))
        .sum()
}

/// `graph.*` and `tensor.*`: the op-graph plan compiled as the serve
/// workers compile it, and replayed single-threaded on `rows` at the
/// timed phase's mean batch.
pub fn graph_metrics(net: &BinaryNetwork, rows: &[&[f32]], mean_batch: f64) -> Vec<Metric> {
    let batch = (mean_batch.round() as usize).clamp(1, rows.len());
    let capacity = batch.next_power_of_two().max(SERVE_MIN_PLAN);
    let mut compile_us = Vec::new();
    let mut plan = None;
    for _ in 0..5 {
        let t = Instant::now();
        plan = Some(trace::span("graph.compile", || {
            ExecPlan::compile(net, capacity)
        }));
        compile_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let plan = plan.expect("compiled at least once");
    let mut buffers = plan.buffers();
    let mut logits = vec![0.0f32; capacity * plan.out_features()];
    let mut at = 0usize;
    let replay_us = replay_us_per_sample("graph.replay_rows", || {
        if at + batch > rows.len() {
            at = 0;
        }
        let chunk = &rows[at..at + batch];
        at += batch;
        plan.replay_rows(
            chunk,
            &mut buffers,
            &mut logits[..batch * plan.out_features()],
        );
        std::hint::black_box(&logits);
        batch
    });
    let words = xnor_words_per_sample(net);
    vec![
        metric("graph.replay_us_per_sample", replay_us, "us"),
        metric("graph.compile_us", median(compile_us), "us"),
        metric(
            "graph.arena_bytes",
            (plan.arena_words() * 8) as f64,
            "bytes",
        ),
        metric("tensor.xnor_words_per_sample", words as f64, "words"),
        metric(
            "tensor.ns_per_xnor_word",
            replay_us * 1e3 / words as f64,
            "ns",
        ),
    ]
}

/// `binary.oracle_us_per_sample` from the oracle pass's spans.
pub fn oracle_metric(samples: usize) -> Metric {
    let t = trace::totals()
        .get("binary.logits_batch_rows")
        .copied()
        .unwrap_or_default();
    metric(
        "binary.oracle_us_per_sample",
        t.total_ns as f64 / 1e3 / samples.max(1) as f64,
        "us",
    )
}

/// Expected logits of every row, from the software oracle
/// (`BinaryNetwork::logits_batch_rows`) in batches of 64, flattened.
pub fn oracle(net: &BinaryNetwork, rows: &[&[f32]]) -> Vec<f32> {
    let mut out = Vec::with_capacity(rows.len() * net.out_features());
    for chunk in rows.chunks(64) {
        let logits = trace::span("binary.logits_batch_rows", || net.logits_batch_rows(chunk));
        out.extend_from_slice(logits.as_slice());
    }
    out
}

/// Samples per dispatch between two snapshots.
pub fn mean_batch(before: &StatsSnapshot, after: &StatsSnapshot) -> f64 {
    let total = |s: &StatsSnapshot, f: fn(&rbnn_serve::EngineSnapshot) -> u64| {
        s.engines.iter().map(f).sum::<u64>()
    };
    let samples = total(after, |e| e.samples) - total(before, |e| e.samples);
    let batches = total(after, |e| e.batches) - total(before, |e| e.batches);
    samples as f64 / batches.max(1) as f64
}

/// Server-side counters over the timed phase.
pub fn serve_metrics(
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    server: &Server,
    measured: &Measured,
    client_p50_us: f64,
) -> Vec<Metric> {
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let linger = median(
        server
            .span_samples()
            .iter()
            .map(|s| us(s.batch_wait))
            .collect(),
    );
    let traced_requests: u64 = measured.traced.iter().map(|s| s.requests).sum();
    vec![
        metric(
            "serve.requests",
            (after.completed - before.completed) as f64,
            "count",
        ),
        metric(
            "serve.rejected",
            (after.rejected - before.rejected) as f64,
            "count",
        ),
        metric(
            "serve.expired",
            (after.expired - before.expired) as f64,
            "count",
        ),
        metric(
            "serve.transient",
            (after.transient - before.transient) as f64,
            "count",
        ),
        metric("serve.mean_batch", mean_batch(before, after), "samples"),
        metric("serve.queue_wait_p50_us", us(after.queue_p50), "us"),
        metric("serve.queue_wait_p99_us", us(after.queue_p99), "us"),
        metric("serve.linger_p50_us", linger, "us"),
        metric("serve.service_p50_us", us(after.service_p50), "us"),
        metric("serve.service_p99_us", us(after.service_p99), "us"),
        metric(
            "serve.client_gap_p50_us",
            client_p50_us - us(after.p50),
            "us",
        ),
        metric(
            "serve.allocs_per_request",
            measured.traced_allocs as f64 / traced_requests.max(1) as f64,
            "count",
        ),
    ]
}

/// The device seed the serve pool gives worker `w`'s fabric: the
/// registered fabric's seed salted per worker as `Server::start` does, so
/// that the standalone fabrics here are the ones the pool senses on.
fn worker_fabric(fabric: &EngineConfig, config: &ServeConfig, w: usize) -> EngineConfig {
    let mut cfg = fabric.clone();
    let salt = config.seed.wrapping_add(w as u64 * 0x9E37_79B9);
    cfg.seed = cfg.seed.wrapping_add(salt);
    cfg
}

/// Sense counters the serve pool reported over the timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Senses {
    pub senses: u64,
    pub samples: u64,
    /// Served samples whose class equals the oracle's.
    pub argmax_agree: u64,
}

/// `rram.*`: fabrics programmed standalone as the pool programs them, and
/// sensed on `rows`; sense counts and agreement from the timed phase.
pub fn rram_metrics(
    net: &BinaryNetwork,
    fabric: &EngineConfig,
    config: &ServeConfig,
    rows: &[&[f32]],
    served: Senses,
) -> Vec<Metric> {
    let mut program_ms = Vec::new();
    let mut engines = Vec::new();
    for w in 0..config.workers {
        let cfg = worker_fabric(fabric, config, w);
        let t = Instant::now();
        engines.push(trace::span("rram.program", || {
            NetworkEngine::program(net, &cfg)
        }));
        program_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let marginal: usize = engines.iter().map(NetworkEngine::marginal_cells).sum();
    let engine = &mut engines[0];
    let mut at = 0usize;
    let sense_us = replay_us_per_sample("rram.logits_batch_rows", || {
        if at + 64 > rows.len() {
            at = 0;
        }
        let n = 64.min(rows.len());
        std::hint::black_box(engine.logits_batch_rows(&rows[at..at + n]));
        at += n;
        n
    });
    let per_sample = |x: f64| x / served.samples.max(1) as f64;
    vec![
        metric("rram.program_ms", median(program_ms), "ms"),
        metric("rram.sense_us_per_sample", sense_us, "us"),
        metric(
            "rram.senses_per_sample",
            per_sample(served.senses as f64),
            "count",
        ),
        metric(
            "rram.sense_nj_per_sample",
            per_sample(sense_energy_nj(
                served.senses,
                &EnergyParams::default_figures(),
            )),
            "nJ",
        ),
        metric("rram.marginal_cells", marginal as f64, "count"),
        metric(
            "rram.argmax_agree_share",
            per_sample(served.argmax_agree as f64),
            "share",
        ),
    ]
}

/// The `rram.*` metrics of a workload that does not run the RRAM
/// backend: all zero.
pub fn rram_not_run() -> Vec<Metric> {
    [
        ("rram.program_ms", "ms"),
        ("rram.sense_us_per_sample", "us"),
        ("rram.senses_per_sample", "count"),
        ("rram.sense_nj_per_sample", "nJ"),
        ("rram.marginal_cells", "count"),
        ("rram.argmax_agree_share", "share"),
    ]
    .into_iter()
    .map(|(n, u)| metric(n, 0.0, u))
    .collect()
}
