//! `ward_stream`: the clinical path. Patients replay pre-generated 12-lead
//! 360 Hz ECG recordings through per-patient sessions into stream routers
//! (bedside gateways, one per core), which wait for the serve pool's
//! replies and run each patient's alarm.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbnn_binary::BinaryNetwork;
use rbnn_data::ecg::{Electrode, INVERTED};
use rbnn_data::stream::{collect_frames, EcgStream, EcgStreamConfig, SignalSource};
use rbnn_rram::EngineConfig;
use rbnn_serve::{demo_network, Backend, BatchPolicy, ServeError, ServeTask, Server};
use rbnn_stream::{
    AlarmConfig, AlarmEvent, AlarmState, Normalization, PatientReport, RouterConfig,
    SegmenterConfig, Session, SessionConfig, StreamRouter, TailPolicy, Window, WindowLayout,
};

use crate::layers;
use crate::replay::ReplaySource;
use crate::{
    bit_equal, calm_half, digest, generators, median, metric, nproc, steal_ticks, trace, Args,
    Deployment, Metric, Report, Segment,
};

pub const CHANNELS: usize = 12;
const SAMPLE_RATE: f32 = 360.0;
/// 1-second windows with 50% overlap.
pub const WINDOW: usize = 360;
pub const STRIDE: usize = 180;
/// Frames the router pulls per source poll: a third of a second.
pub const CHUNK_FRAMES: usize = 120;
/// Frames per synthesized segment (3 s); a recording is
/// [`SEGMENTS`] of them and loops, so its window sequence repeats every
/// `SEGMENTS * SEGMENT_FRAMES / STRIDE` windows.
const SEGMENT_FRAMES: usize = 1080;
const SEGMENTS: usize = 8;
const PATIENTS: usize = 64;
/// Patients whose windows are kept for warm-up and the standalone layer
/// replays.
const KEPT_PATIENTS: usize = 4;
const DIMS: &[usize] = &[CHANNELS * WINDOW, 80, 2];
const MODEL_SEED: u64 = 0x57E4;

fn alarm() -> AlarmConfig {
    AlarmConfig {
        k: 3,
        m: 5,
        positive_class: INVERTED,
    }
}

pub fn session() -> Session {
    Session::new(SessionConfig {
        segmenter: SegmenterConfig {
            channels: CHANNELS,
            window: WINDOW,
            stride: STRIDE,
            tail: TailPolicy::Drop,
        },
        layout: WindowLayout::ChannelMajor,
        normalization: Normalization::PerWindow,
    })
}

/// The patients' pre-generated recordings.
#[derive(Debug)]
pub struct Patients {
    recordings: Vec<Arc<Vec<f32>>>,
}

impl Patients {
    /// `n` recordings from `seed`. Odd patients get an RA/LA electrode
    /// swap from a seeded segment in the middle of the recording on, so
    /// each loop of the recording replays the swap.
    pub fn generate(seed: u64, n: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let recordings = (0..n)
            .map(|id| {
                let mut cfg = EcgStreamConfig {
                    samples_per_segment: SEGMENT_FRAMES,
                    sample_rate: SAMPLE_RATE,
                    seed: rng.gen(),
                    ..EcgStreamConfig::default()
                };
                if id % 2 == 1 {
                    cfg.swap = Some((Electrode::Ra, Electrode::La));
                    cfg.swap_from_segment = rng.gen_range(2..SEGMENTS - 2);
                }
                let mut stream = EcgStream::new(cfg);
                Arc::new(collect_frames(&mut stream, SEGMENTS * SEGMENT_FRAMES))
            })
            .collect();
        Patients { recordings }
    }

    pub fn recording(&self, p: usize) -> Arc<Vec<f32>> {
        Arc::clone(&self.recordings[p])
    }

    /// Windows after which a looping recording's windows repeat.
    pub fn period_windows(&self) -> usize {
        SEGMENTS * SEGMENT_FRAMES / STRIDE
    }

    pub fn digest(&self) -> u64 {
        digest(self.recordings.iter().map(|r| r.as_slice()))
    }
}

/// One period of patient `p`'s windows, by offline segmentation of the
/// recording followed by the frames its last windows wrap into.
pub fn one_period_windows(patients: &Patients, p: usize) -> Vec<Window> {
    let rec = &patients.recordings[p];
    let mut frames = rec.to_vec();
    frames.extend_from_slice(&rec[..(WINDOW - STRIDE) * CHANNELS]);
    let windows = session().push_chunk(&frames);
    assert_eq!(windows.len(), patients.period_windows());
    windows
}

/// The generated inputs and what the program must answer for them.
struct Inputs {
    patients: Patients,
    /// Expected logits of each patient's period of windows, flattened.
    expected: Vec<Vec<f32>>,
    /// Windows of the first [`KEPT_PATIENTS`] patients.
    kept: Vec<Vec<f32>>,
}

impl Inputs {
    fn generate(seed: u64, net: &BinaryNetwork) -> Self {
        let patients = Patients::generate(seed, PATIENTS);
        let mut expected = Vec::with_capacity(PATIENTS);
        let mut kept = Vec::new();
        for p in 0..PATIENTS {
            let windows = one_period_windows(&patients, p);
            let rows: Vec<&[f32]> = windows.iter().map(|w| w.features.as_slice()).collect();
            expected.push(layers::oracle(net, &rows));
            if p < KEPT_PATIENTS {
                kept.extend(windows.into_iter().map(|w| w.features));
            }
        }
        Inputs {
            patients,
            expected,
            kept,
        }
    }

    /// Failed windows of one patient: failures, logits that differ from
    /// the oracle, and windows out of order; plus one if the alarm raised
    /// a different number of times than the oracle's classes replayed
    /// through `AlarmState`.
    fn check(&self, report: &PatientReport) -> u64 {
        let expected = &self.expected[report.id];
        let period = self.patients.period_windows();
        let classes = expected.len() / period;
        let mut alarm = AlarmState::new(alarm());
        let mut raised = 0u64;
        let mut failed = 0u64;
        for (i, v) in report.verdicts.iter().enumerate() {
            let at = (v.window as usize % period) * classes;
            let want = &expected[at..at + classes];
            let ok = v.window == i as u64 && v.logits().is_some_and(|l| bit_equal(l, want));
            failed += u64::from(!ok);
            raised +=
                u64::from(alarm.update(rbnn_tensor::argmax(want)) == Some(AlarmEvent::Raised));
        }
        failed + u64::from(raised != report.alarms_raised)
    }
}

/// Stream-side counts that a [`Segment`] does not carry.
#[derive(Debug, Default)]
struct StreamCounts {
    retries: u64,
    failed_windows: u64,
}

/// Windows each patient submits in one round of the routers: enough that
/// ten or more lie beyond its p99. A round's reports are checked and
/// dropped before the next round, so the routers' verdict logs, and with
/// them the peak RSS, stay bounded by one round. A round is a fixed amount
/// of work rather than a fixed time, so that bound does not grow with
/// the host's speed.
const WINDOWS_PER_ROUND: u64 = 1100;

/// One stream router (a bedside gateway) over the patients `p` with
/// `p % gateways == g`, its sources ending at `stop`.
fn gateway(
    server: &Server,
    inputs: &Inputs,
    g: usize,
    gateways: usize,
    stop: Instant,
) -> Result<Vec<PatientReport>, ServeError> {
    let client = server
        .handle()
        .client(ServeTask::Ecg)
        .expect("model registered");
    trace::span("stream.router.run", || {
        let mut router = StreamRouter::new(
            client,
            RouterConfig {
                chunk_frames: CHUNK_FRAMES,
                max_in_flight: 4,
                windows_per_patient: WINDOWS_PER_ROUND,
                alarm: alarm(),
                ..Default::default()
            },
        );
        for p in (g..PATIENTS).step_by(gateways) {
            let rec = inputs.patients.recording(p);
            let source = ReplaySource::new(rec, CHANNELS, SAMPLE_RATE, Some(stop));
            router.add_patient(p, Box::new(source), session());
        }
        router.run()
    })
}

/// One round: every gateway runs its patients for [`WINDOWS_PER_ROUND`]
/// windows each, or until `stop`.
fn round(server: &Server, inputs: &Inputs, stop: Instant) -> Vec<PatientReport> {
    let gateways = generators();
    std::thread::scope(|s| {
        let routers: Vec<_> = (0..gateways)
            .map(|g| s.spawn(move || gateway(server, inputs, g, gateways, stop)))
            .collect();
        routers
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .expect("gateway thread panicked")
                    .expect("the pool stays up for the run")
            })
            .collect()
    })
}

/// Rounds of every gateway filling `length`; the last, cut short at the
/// end, counts towards the totals only. Throughput and latency are
/// medians over the calmer half of the whole rounds (see [`calm_half`]); a
/// round's latency is the median over patients of each patient's p50 and
/// p99 window-to-verdict latency.
fn segment(
    server: &Server,
    inputs: &Inputs,
    length: Duration,
    counts: &mut StreamCounts,
) -> Segment {
    let before = server.stats();
    let t0 = Instant::now();
    let stop = t0 + length;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let mut seg = Segment::default();
    let (mut rates, mut p50, mut p99, mut steal) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while Instant::now() < stop {
        let (started, stolen) = (Instant::now(), steal_ticks());
        let reports = round(server, inputs, stop);
        let elapsed = started.elapsed();
        let classified: u64 = reports.iter().map(|r| r.windows - r.failed_windows).sum();
        // A round cut short has too few windows for its p99; a segment too
        // short for one whole round keeps its one cut round.
        if reports.iter().all(|r| r.windows >= WINDOWS_PER_ROUND) || rates.is_empty() {
            steal.push(steal_ticks() - stolen);
            rates.push(classified as f64 / elapsed.as_secs_f64());
            p50.push(median(reports.iter().map(|r| us(r.p50_latency)).collect()));
            p99.push(median(reports.iter().map(|r| us(r.p99_latency)).collect()));
        }
        seg.samples += classified;
        seg.attempted += reports.iter().map(|r| r.windows).sum::<u64>();
        seg.failed += reports.iter().map(|r| inputs.check(r)).sum::<u64>();
        counts.retries += reports.iter().map(|r| r.retries).sum::<u64>();
        counts.failed_windows += reports.iter().map(|r| r.failed_windows).sum::<u64>();
    }
    let after = server.stats();
    let calm = calm_half(&steal);
    let calm_median = |v: &[f64]| median(calm.iter().map(|&k| v[k]).collect());
    Segment {
        elapsed: t0.elapsed(),
        samples_per_s: calm_median(&rates),
        latency_p50_us: calm_median(&p50),
        latency_p99_us: calm_median(&p99),
        requests: after.completed - before.completed,
        ..seg
    }
}

/// `stream.session_us_per_window`: `Session::push_chunk` alone, on the
/// chunks the router pulls from every patient's recording.
fn session_us_per_window(patients: &Patients) -> f64 {
    let chunks_per_period = patients.period_windows() * STRIDE / CHUNK_FRAMES;
    let chunks: Vec<Vec<Vec<f32>>> = (0..PATIENTS)
        .map(|p| {
            let mut src = ReplaySource::new(patients.recording(p), CHANNELS, SAMPLE_RATE, None);
            (0..chunks_per_period)
                .map(|_| {
                    let mut c = Vec::new();
                    src.next_chunk(CHUNK_FRAMES, &mut c);
                    c
                })
                .collect()
        })
        .collect();
    let mut sessions: Vec<Session> = (0..PATIENTS).map(|_| session()).collect();
    let mut p = 0usize;
    layers::replay_us_per_sample("stream.session.push_chunk", || {
        p = (p + 1) % PATIENTS;
        chunks[p]
            .iter()
            .map(|c| std::hint::black_box(sessions[p].push_chunk(c)).len())
            .sum()
    })
}

/// The `stream.*` metrics of a workload that does not run the stream
/// layer: all zero.
pub fn stream_not_run() -> Vec<Metric> {
    [
        ("stream.session_us_per_window", "us"),
        ("stream.source_us_per_window", "us"),
        ("stream.router_self_us_per_window", "us"),
        ("stream.reply_lag_p50_us", "us"),
        ("stream.windows_per_request", "windows"),
        ("stream.retries", "count"),
        ("stream.failed_windows", "count"),
    ]
    .into_iter()
    .map(|(n, u)| metric(n, 0.0, u))
    .collect()
}

pub fn run(args: &Args) -> Report {
    let deployment = Deployment {
        dims: DIMS,
        model_seed: MODEL_SEED,
        backend: Backend::Software,
        fabric: EngineConfig::test_chip(4),
        max_batch: BatchPolicy::default().max_batch,
    };
    let net = demo_network(DIMS, MODEL_SEED);
    let inputs = Inputs::generate(args.seed, &net);
    // Warm-up as the router submits: many small requests at once.
    let pair = Arc::new(inputs.kept[..2].to_vec());
    let warm_up = vec![pair; PATIENTS * 4];
    let (server, setup_s) = deployment.start_timed(&warm_up);

    let before = server.stats();
    let mut counts = StreamCounts::default();
    let measured = crate::measure(args, |length| {
        segment(&server, &inputs, length, &mut counts)
    });
    let after = server.stats();
    let stream_spans = trace::totals();

    let latency_p50 = measured.median_of(|s| s.latency_p50_us);
    let mut notes = vec![format!(
        "ward_stream: model {DIMS:?}, {} workers, {} gateways, {PATIENTS} patients looping {} s \
         recordings (digest {:016x}), {WINDOW}-frame windows every {STRIDE} frames, alarm 3 of 5",
        nproc(),
        generators(),
        SEGMENTS * SEGMENT_FRAMES / SAMPLE_RATE as usize,
        inputs.patients.digest()
    )];
    let metrics = if args.trace {
        let kept: Vec<&[f32]> = inputs.kept.iter().map(Vec::as_slice).collect();
        // Spans exist only for the traced segments' windows.
        let traced_windows: u64 = measured.traced.iter().map(|s| s.attempted).sum();
        let per_window = |ns: u64| ns as f64 / 1e3 / traced_windows.max(1) as f64;
        let span_ns =
            |name: &str, f: fn(&trace::Totals) -> u64| stream_spans.get(name).map_or(0, f);
        let mean_batch = layers::mean_batch(&before, &after);
        let serve_p50_us = after.p50.as_secs_f64() * 1e6;
        let mut m = layers::serve_metrics(&before, &after, &server, &measured, latency_p50);
        m.extend(layers::graph_metrics(&net, &kept, mean_batch));
        m.push(layers::oracle_metric(
            PATIENTS * inputs.patients.period_windows(),
        ));
        m.extend([
            metric(
                "stream.session_us_per_window",
                session_us_per_window(&inputs.patients),
                "us",
            ),
            metric(
                "stream.source_us_per_window",
                per_window(span_ns("stream.source.next_chunk", |t| t.total_ns)),
                "us",
            ),
            metric(
                "stream.router_self_us_per_window",
                per_window(span_ns("stream.router.run", |t| t.self_ns)),
                "us",
            ),
            metric("stream.reply_lag_p50_us", latency_p50 - serve_p50_us, "us"),
            metric(
                "stream.windows_per_request",
                measured.total(|s| s.attempted) as f64
                    / measured.total(|s| s.requests).max(1) as f64,
                "windows",
            ),
            metric("stream.retries", counts.retries as f64, "count"),
            metric(
                "stream.failed_windows",
                counts.failed_windows as f64,
                "count",
            ),
        ]);
        m.extend(layers::rram_not_run());
        m.push(metric(
            "trace.overhead_share",
            measured.overhead_share(),
            "share",
        ));
        notes.push("tensor.xnor_words_per_sample is computed from the layer shapes".into());
        m
    } else {
        let s = &measured.untraced[0];
        notes.push(format!(
            "{} windows in {} requests over {:.3} s; {} windows per patient on average",
            s.attempted,
            s.requests,
            s.elapsed.as_secs_f64(),
            s.attempted / PATIENTS as u64
        ));
        vec![
            metric("samples_per_s", s.samples_per_s, "1/s"),
            metric("latency_p50_us", s.latency_p50_us, "us"),
            metric("latency_p99_us", s.latency_p99_us, "us"),
            metric("setup_s", setup_s, "s"),
        ]
    };
    Report {
        attempted: measured.total(|s| s.attempted),
        failed: measured.total(|s| s.failed),
        metrics,
        notes,
    }
}
