//! The repository benchmark. One run measures one named workload:
//!
//! ```text
//! perfbench --workload <ward_stream|bulk_batch|single_merge|rram_fabric>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It generates the workload's inputs from the seed, starts the serve
//! pool, measures for the given time, checks every reply against the
//! software oracle and prints, as its last line, one JSON object with the
//! operations attempted and failed and the metrics: end to end with
//! `--trace 0`, per layer with `--trace 1`. See `README.md` beside this
//! package for the workloads and what each metric should move.

mod layers;
mod load;
mod replay;
mod trace;
mod ward;

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rbnn_rram::EngineConfig;
use rbnn_serve::{
    demo_network, Backend, BatchPolicy, ModelRegistry, ServeConfig, ServeTask, Server,
};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;

/// Untraced/traced segment pairs in a traced run; `trace.overhead_share`
/// is the median over pairs.
const TRACE_PAIRS: usize = 3;

/// The workloads, by the names `BENCHMARK.json` gives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WardStream,
    BulkBatch,
    SingleMerge,
    RramFabric,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::WardStream,
        Workload::BulkBatch,
        Workload::SingleMerge,
        Workload::RramFabric,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WardStream => "ward_stream",
            Workload::BulkBatch => "bulk_batch",
            Workload::SingleMerge => "single_merge",
            Workload::RramFabric => "rram_fabric",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One named metric value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one timed segment measured. The segment is cut into slices (or
/// rounds, on `ward_stream`); rates and latencies are medians over the
/// calmer half of them (see [`calm_half`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Segment {
    /// Classified samples (windows on `ward_stream`), drain included.
    pub samples: u64,
    pub elapsed: Duration,
    /// Samples the pool served per second.
    pub samples_per_s: f64,
    /// Operations submitted: requests, or windows on `ward_stream`.
    pub attempted: u64,
    /// Operations refused, errored, out of retries, or answered wrongly.
    pub failed: u64,
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
    /// Requests the server completed during the segment.
    pub requests: u64,
}

/// Length of the slices a request workload's segment is cut into. Short
/// slices let the median step over the few-millisecond stalls of a shared
/// host, which would otherwise sit in the tail of every longer slice.
const SLICE: Duration = Duration::from_millis(100);

/// Slices a segment of `length` is cut into.
pub fn slices(length: Duration) -> usize {
    ((length.as_secs_f64() / SLICE.as_secs_f64()).round() as usize).max(1)
}

/// What the monitor saw in one slice.
#[derive(Debug, Clone, Copy)]
pub struct SliceLoad {
    /// Samples the pool served per second.
    pub served_per_s: f64,
    /// Steal ticks: CPU time the hypervisor gave other guests while this
    /// host's cores wanted to run.
    pub steal: u64,
}

/// The pool's served samples per second and the host's steal time in
/// each slice of the `length` starting at `t0`, read at each slice's
/// end. Runs beside the load, sleeping between reads; a rate is over the
/// time between the reads as measured, not the nominal slice.
pub fn watch_slices(server: &Server, t0: Instant, length: Duration) -> Vec<SliceLoad> {
    let n = slices(length);
    let slice = length / n as u32;
    let served = || {
        server
            .stats()
            .engines
            .iter()
            .map(|e| e.samples)
            .sum::<u64>()
    };
    let (mut last, mut last_steal, mut last_at) = (served(), steal_ticks(), Instant::now());
    (1..=n as u32)
        .map(|k| {
            std::thread::sleep((t0 + slice * k).saturating_duration_since(Instant::now()));
            let (now, steal, at) = (served(), steal_ticks(), Instant::now());
            let load = SliceLoad {
                served_per_s: (now - last) as f64 / (at - last_at).as_secs_f64().max(1e-9),
                steal: steal - last_steal,
            };
            (last, last_steal, last_at) = (now, steal, at);
            load
        })
        .collect()
}

/// Indices of the calmer half of a segment's slices: those in which the
/// hypervisor stole no more CPU time than in the median slice. On a
/// two-core VM that shares its cores with other guests, the guests took
/// 5–25% of them for seconds to minutes at a time, and the slices they
/// hit ran up to 40% slower with p99 latencies up to ten times higher.
/// Choosing slices by steal time, never by the measured values, keeps
/// those stalls out of the result without favouring fast slices. On a
/// quiet host no slice has steal and every slice is kept.
pub fn calm_half(steal: &[u64]) -> Vec<usize> {
    let mut sorted = steal.to_vec();
    sorted.sort_unstable();
    let Some(&limit) = sorted.get(sorted.len().saturating_sub(1) / 2) else {
        return Vec::new();
    };
    (0..steal.len()).filter(|&i| steal[i] <= limit).collect()
}

/// The timed phase: one segment of the full length, or, in a traced run,
/// [`TRACE_PAIRS`] untraced/traced pairs in alternating order.
#[derive(Debug, Default)]
pub struct Measured {
    pub untraced: Vec<Segment>,
    pub traced: Vec<Segment>,
    /// Allocations counted during the traced segments.
    pub traced_allocs: u64,
}

impl Measured {
    /// Sum over all segments of a per-segment count.
    pub fn total(&self, f: impl Fn(&Segment) -> u64) -> u64 {
        self.untraced.iter().chain(&self.traced).map(f).sum()
    }

    /// Median over all segments of a per-segment value.
    pub fn median_of(&self, f: impl Fn(&Segment) -> f64) -> f64 {
        median(self.untraced.iter().chain(&self.traced).map(f).collect())
    }

    /// `(untraced - traced) / untraced` samples/s, median over pairs.
    pub fn overhead_share(&self) -> f64 {
        median(
            self.untraced
                .iter()
                .zip(&self.traced)
                .map(|(u, t)| (u.samples_per_s - t.samples_per_s) / u.samples_per_s)
                .collect(),
        )
    }
}

/// Runs the timed phase through `segment(length)`, tracing where the
/// run asks for it.
pub fn measure(args: &Args, mut segment: impl FnMut(Duration) -> Segment) -> Measured {
    let before = cpu_jiffies();
    let m = measure_segments(args, &mut segment);
    let after = cpu_jiffies();
    println!(
        "host steal during the timed phase: {:.2}% of CPU time",
        100.0 * (after.0 - before.0) as f64 / (after.1 - before.1).max(1) as f64
    );
    m
}

/// Steal ticks since boot (see [`cpu_jiffies`]).
pub fn steal_ticks() -> u64 {
    cpu_jiffies().0
}

/// CPU time the hypervisor ran other guests on the VM's cores
/// (steal), and all CPU time, in ticks since boot; zeros where
/// `/proc/stat` cannot be read.
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

fn measure_segments(args: &Args, segment: &mut impl FnMut(Duration) -> Segment) -> Measured {
    let mut m = Measured::default();
    if !args.trace {
        m.untraced
            .push(segment(Duration::from_secs_f64(args.seconds)));
        return m;
    }
    let length = Duration::from_secs_f64(args.seconds / (2 * TRACE_PAIRS) as f64);
    for pair in 0..TRACE_PAIRS {
        for traced in [pair % 2 == 1, pair % 2 == 0] {
            trace::set_active(traced);
            let allocs = trace::allocations();
            let s = segment(length);
            if traced {
                m.traced_allocs += trace::allocations() - allocs;
                m.traced.push(s);
            } else {
                m.untraced.push(s);
            }
        }
    }
    trace::set_active(true);
    m
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of durations, in microseconds; 0 when empty.
pub fn quantile_us(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[i].as_secs_f64() * 1e6
}

/// Logical cores: the serve pool's worker count and the cap on the
/// benchmark's load-generating threads.
pub fn nproc() -> usize {
    rbnn_bench::host_cores()
}

/// Load-generating threads (clients, or stream routers): one per core,
/// at most two. Together with the workers they keep both cores of a
/// two-core host busy, which keeps the scheduler from parking a worker
/// on a lone generator's core for seconds at a time.
pub fn generators() -> usize {
    nproc().min(2)
}

/// One request's rows, shared so that resubmitting it copies nothing.
pub type Request = Arc<Vec<Vec<f32>>>;

/// How a workload's serve pool is deployed.
#[derive(Debug, Clone)]
pub struct Deployment {
    pub dims: &'static [usize],
    pub model_seed: u64,
    pub backend: Backend,
    pub fabric: EngineConfig,
    /// Most requests the batcher merges into one dispatch.
    pub max_batch: usize,
}

impl Deployment {
    /// The pool configuration: the serve defaults with one worker per
    /// core and the deployment's merge limit.
    pub fn config(&self) -> ServeConfig {
        ServeConfig {
            workers: nproc(),
            backend: self.backend,
            batch: BatchPolicy {
                max_batch: self.max_batch,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// Set-up as a deployment pays for it: build the model, register it,
    /// start the pool (programming RRAM fabrics on that backend), and
    /// wait for the replies to `warm_up`, all submitted at once.
    pub fn start(&self, warm_up: &[Request]) -> Server {
        trace::span("setup", || {
            let mut registry = ModelRegistry::new();
            registry.insert(
                ServeTask::Ecg,
                demo_network(self.dims, self.model_seed),
                self.fabric.clone(),
            );
            let server = Server::start(&registry, &self.config());
            let client = server
                .handle()
                .client(ServeTask::Ecg)
                .expect("model registered");
            let pending: Vec<_> = warm_up
                .iter()
                .map(|rows| {
                    client
                        .enqueue_shared(Arc::clone(rows))
                        .expect("warm-up queued")
                })
                .collect();
            for p in pending {
                p.wait().expect("warm-up served");
            }
            server
        })
    }

    /// Sets up [`SETUPS`] times; returns the last pool and the median
    /// set-up time in seconds. Earlier pools shut down outside the clock.
    pub fn start_timed(&self, warm_up: &[Request]) -> (Server, f64) {
        let mut times = Vec::with_capacity(SETUPS);
        let mut kept = None;
        for _ in 0..SETUPS {
            let t = Instant::now();
            let server = self.start(warm_up);
            times.push(t.elapsed().as_secs_f64());
            kept = Some(server);
        }
        (kept.expect("SETUPS > 0"), median(times))
    }
}

/// Whether two logit rows are bit-for-bit equal.
pub fn bit_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// 64-bit FNV-1a over f32 bit patterns: a digest of generated inputs.
pub fn digest<'a>(rows: impl IntoIterator<Item = &'a [f32]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for row in rows {
        for v in row {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Peak resident set size (`VmHWM`) in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What a workload run hands back to `main`.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced
    /// run), apart from `peak_rss_mib`, which `main` adds.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

fn host_record() -> String {
    let d = rbnn_bench::KernelDispatch::capture();
    format!(
        "{{\"nproc\":{},\"features\":\"{}\",\"forced_scalar\":{},\"popcount\":\"{}\",\
         \"pack\":\"{}\",\"gemm\":\"{}\",\"executor\":\"{}\"}}",
        nproc(),
        d.features,
        d.forced_scalar,
        d.popcount,
        d.pack,
        d.gemm,
        d.executor
    )
}

fn result_json(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <ward_stream|bulk_batch|single_merge|rram_fabric> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let host = host_record();
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {host}");
    trace::set_active(args.trace);
    let mut report = match args.workload {
        Workload::WardStream => ward::run(&args),
        w => load::run(&args, w),
    };
    if !args.trace {
        report
            .metrics
            .push(metric("peak_rss_mib", peak_rss_mib(), "MiB"));
    }
    trace::set_active(false);
    for note in &report.notes {
        println!("{note}");
    }
    for m in &report.metrics {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/{}-seed{}.trace.json",
            args.workload.name(),
            args.seed
        ));
        let header = format!(
            "\"workload\":\"{}\",\"seed\":{},\"host\":{host}",
            args.workload.name(),
            args.seed
        );
        match trace::write_report(&path, &header) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&report));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_digest(workload: Workload, seed: u64) -> u64 {
        let spec = load::spec(workload);
        let net = demo_network(spec.deployment.dims, spec.deployment.model_seed);
        load::Pool::generate(&spec, &net, seed, 2).digest()
    }

    #[test]
    fn one_seed_gives_identical_inputs_and_two_seeds_differ() {
        for w in [
            Workload::BulkBatch,
            Workload::SingleMerge,
            Workload::RramFabric,
        ] {
            assert_eq!(request_digest(w, 5), request_digest(w, 5), "{w:?}");
            assert_ne!(request_digest(w, 5), request_digest(w, 6), "{w:?}");
        }
        let ward = |seed| ward::Patients::generate(seed, 4).digest();
        assert_eq!(ward(5), ward(5));
        assert_ne!(ward(5), ward(6));
    }

    /// Senses per sample the `rram_fabric` pool reports for the inputs of
    /// `seed`, served as the workload serves them.
    fn senses_per_sample(seed: u64) -> f64 {
        let spec = load::spec(Workload::RramFabric);
        let net = demo_network(spec.deployment.dims, spec.deployment.model_seed);
        let pool = load::Pool::generate(&spec, &net, seed, 1);
        let server = spec.deployment.start(&[]);
        let client = server.handle().client(ServeTask::Ecg).expect("registered");
        let pending: Vec<_> = pool.requests[..8]
            .iter()
            .map(|r| client.enqueue_shared(Arc::clone(r)).expect("queued"))
            .collect();
        for p in pending {
            p.wait().expect("served");
        }
        // Shutdown joins the workers, so every batch is on the counters.
        let stats = server.shutdown();
        let senses: u64 = stats.engines.iter().map(|e| e.senses).sum();
        let samples: u64 = stats.engines.iter().map(|e| e.samples).sum();
        assert_eq!(samples, 8 * 64);
        senses as f64 / samples as f64
    }

    #[test]
    fn one_seed_gives_identical_senses_per_sample() {
        let a = senses_per_sample(5);
        assert!(a > 0.0);
        assert_eq!(a, senses_per_sample(5));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            attempted: 3,
            failed: 0,
            metrics: vec![metric("setup_s", 0.25, "s")],
            notes: Vec::new(),
        };
        assert_eq!(
            result_json(&report),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
