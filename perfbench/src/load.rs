//! The request workloads: `bulk_batch`, `single_merge` and
//! `rram_fabric`. Closed-loop clients (as many as there are cores, at
//! most two) each keep a fixed number of requests in flight, drawn from a
//! pre-generated pool, and send the next only when the oldest is
//! answered.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rbnn_binary::BinaryNetwork;
use rbnn_rram::EngineConfig;
use rbnn_serve::{demo_network, Backend, PendingWindow, ServeTask, Server};

use crate::layers::{self, Senses};
use crate::{
    bit_equal, calm_half, digest, generators, median, metric, nproc, quantile_us, slices, trace,
    ward, watch_slices, Args, Deployment, Report, Request, Segment, Workload,
};

/// One request workload's shape.
#[derive(Debug, Clone)]
pub struct Spec {
    pub deployment: Deployment,
    /// Samples per request.
    pub rows_per_request: usize,
    /// Requests each client keeps in flight.
    pub in_flight: usize,
    /// Distinct samples in the input pool.
    pub pool_rows: usize,
}

/// The deployed ECG classifier of the serving example (flatten 408 → 75
/// → 2) and the paper's Table I shape (2520 → 80 → 2).
const DEPLOYED: &[usize] = &[408, 75, 2];
const PAPER: &[usize] = &[2520, 80, 2];
const MODEL_SEED: u64 = 0xD47E;

pub fn spec(workload: Workload) -> Spec {
    // Clients that send 64-sample requests have batched already, so each
    // request is one dispatch: merging the few queued requests would let
    // one worker take them all while the other idles.
    let deployment = |dims, backend, fabric, max_batch| Deployment {
        dims,
        model_seed: MODEL_SEED,
        backend,
        fabric: EngineConfig::test_chip(fabric),
        max_batch,
    };
    match workload {
        // 1536 paper-scale samples are 15 MiB of input, more than a 4 MiB
        // per-core L2, so replay cannot run from a warm cache.
        Workload::BulkBatch => Spec {
            deployment: deployment(PAPER, Backend::Software, 2, 1),
            rows_per_request: 64,
            in_flight: 4,
            pool_rows: 1536,
        },
        // 64 single-sample requests in flight per client: enough for the
        // server to merge full batches of 64.
        Workload::SingleMerge => Spec {
            deployment: deployment(DEPLOYED, Backend::Software, 1, 64),
            rows_per_request: 1,
            in_flight: 64,
            pool_rows: 4096,
        },
        Workload::RramFabric => Spec {
            deployment: deployment(DEPLOYED, Backend::Rram, 1, 1),
            rows_per_request: 64,
            in_flight: 4,
            pool_rows: 1024,
        },
        Workload::WardStream => unreachable!("ward_stream is not a request workload"),
    }
}

/// The generated inputs: requests of pooled rows, their expected logits,
/// and each client's request order.
#[derive(Debug)]
pub struct Pool {
    pub requests: Vec<Request>,
    /// Expected logits per request, flattened row-major.
    pub expected: Vec<Vec<f32>>,
    pub orders: Vec<Vec<usize>>,
}

impl Pool {
    /// Uniform features in [-1, 1) (the network sign-binarizes them) and
    /// a shuffled request order per client, all from `seed`.
    pub fn generate(spec: &Spec, net: &BinaryNetwork, seed: u64, clients: usize) -> Self {
        let width = spec.deployment.dims[0];
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let requests: Vec<Request> = (0..spec.pool_rows / spec.rows_per_request)
            .map(|_| {
                Arc::new(
                    (0..spec.rows_per_request)
                        .map(|_| (0..width).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                        .collect(),
                )
            })
            .collect();
        let orders = (0..clients)
            .map(|_| {
                let mut order: Vec<usize> = (0..requests.len()).collect();
                order.shuffle(&mut rng);
                order
            })
            .collect();
        let expected = requests
            .iter()
            .map(|r| {
                let rows: Vec<&[f32]> = r.iter().map(Vec::as_slice).collect();
                layers::oracle(net, &rows)
            })
            .collect();
        Pool {
            requests,
            expected,
            orders,
        }
    }

    pub fn rows(&self) -> Vec<&[f32]> {
        self.requests
            .iter()
            .flat_map(|r| r.iter().map(Vec::as_slice))
            .collect()
    }

    /// Digest of the inputs: every pooled row and every client's order.
    pub fn digest(&self) -> u64 {
        let orders: Vec<Vec<f32>> = self
            .orders
            .iter()
            .map(|o| o.iter().map(|&i| i as f32).collect())
            .collect();
        digest(
            self.rows()
                .into_iter()
                .chain(orders.iter().map(Vec::as_slice)),
        )
    }
}

/// Latencies each client keeps per slice: a uniform sample of at most
/// this many, so the benchmark's own memory does not grow with the
/// program's throughput (and show in `peak_rss_mib`).
const KEPT_PER_SLICE: usize = 1024;

/// Requests a latency group needs, so that ten or more lie beyond its p99.
const REQUESTS_PER_GROUP: u64 = 1000;

/// A uniform sample of one slice's latencies (reservoir sampling).
#[derive(Debug, Clone, Default)]
struct Reservoir {
    seen: u64,
    kept: Vec<Duration>,
}

impl Reservoir {
    fn add(&mut self, latency: Duration, rng: &mut StdRng) {
        self.seen += 1;
        if self.kept.len() < KEPT_PER_SLICE {
            self.kept.push(latency);
        } else if let Ok(j) = usize::try_from(rng.gen_range(0..self.seen)) {
            if let Some(slot) = self.kept.get_mut(j) {
                *slot = latency;
            }
        }
    }
}

/// What one client thread saw.
#[derive(Debug, Default)]
struct ClientOut {
    /// Latencies of the requests answered in each slice.
    latencies: Vec<Reservoir>,
    samples: u64,
    attempted: u64,
    failed: u64,
    argmax_agree: u64,
}

/// One closed-loop client: keeps `in_flight` requests outstanding from
/// `t0` until `t0 + length`, then drains. Every reply is checked bit for
/// bit against the oracle.
fn client(
    server: &Server,
    spec: &Spec,
    pool: &Pool,
    id: usize,
    t0: Instant,
    length: Duration,
) -> ClientOut {
    let order = &pool.orders[id];
    let client = server
        .handle()
        .client(ServeTask::Ecg)
        .expect("model registered");
    let stop = t0 + length;
    let slice = length / slices(length) as u32;
    let mut out = ClientOut {
        latencies: vec![Reservoir::default(); slices(length)],
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(id as u64);
    let mut queue: VecDeque<(usize, Instant, PendingWindow, trace::Open)> = VecDeque::new();
    let mut next = 0usize;
    trace::span("client", || loop {
        if Instant::now() < stop {
            while queue.len() < spec.in_flight {
                let r = order[next % order.len()];
                next += 1;
                out.attempted += 1;
                let open = trace::begin("serve.request");
                let sent = Instant::now();
                match client.enqueue_shared(Arc::clone(&pool.requests[r])) {
                    Ok(p) => queue.push_back((r, sent, p, open)),
                    Err(_) => {
                        trace::end(open);
                        out.failed += 1;
                    }
                }
            }
        }
        let Some((r, sent, pending, open)) = queue.pop_front() else {
            break;
        };
        let reply = pending.wait();
        let done = Instant::now();
        trace::end(open);
        let at = (done - t0).as_nanos() / slice.as_nanos().max(1);
        if let Some(r) = usize::try_from(at)
            .ok()
            .and_then(|at| out.latencies.get_mut(at))
        {
            r.add(done - sent, &mut rng);
        }
        let classes = pool.expected[r].len() / spec.rows_per_request;
        match reply {
            Ok(predictions) if predictions.len() == spec.rows_per_request => {
                let mut ok = true;
                for (i, p) in predictions.iter().enumerate() {
                    let want = &pool.expected[r][i * classes..(i + 1) * classes];
                    ok &= bit_equal(&p.logits, want);
                    out.argmax_agree += u64::from(p.class == rbnn_tensor::argmax(want));
                }
                out.samples += predictions.len() as u64;
                out.failed += u64::from(!ok);
            }
            _ => out.failed += 1,
        }
    });
    out
}

/// One timed segment: the clients run for `length`, then drain.
fn segment(
    server: &Server,
    spec: &Spec,
    pool: &Pool,
    length: Duration,
    senses: &mut Senses,
) -> Segment {
    let before = server.stats();
    let t0 = Instant::now();
    let (outs, loads) = std::thread::scope(|s| {
        let monitor = s.spawn(|| watch_slices(server, t0, length));
        let clients: Vec<_> = (0..pool.orders.len())
            .map(|id| s.spawn(move || client(server, spec, pool, id, t0, length)))
            .collect();
        let outs: Vec<ClientOut> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (outs, monitor.join().expect("monitor thread panicked"))
    });
    let elapsed = t0.elapsed();
    let after = server.stats();
    // Consecutive slices are grouped so that each group holds enough
    // requests for its own p99; slow workloads get longer groups.
    let answered: Vec<f64> = (0..loads.len())
        .map(|k| outs.iter().map(|o| o.latencies[k].seen).sum::<u64>() as f64)
        .collect();
    let per_group = ((REQUESTS_PER_GROUP as f64 / median(answered).max(1.0)).ceil() as usize)
        .clamp(1, loads.len());
    let groups: Vec<Range<usize>> = (0..loads.len() / per_group)
        .map(|i| i * per_group..(i + 1) * per_group)
        .collect();
    let calm: Vec<&Range<usize>> = calm_half(
        &groups
            .iter()
            .map(|g| loads[g.clone()].iter().map(|l| l.steal).sum())
            .collect::<Vec<u64>>(),
    )
    .into_iter()
    .map(|i| &groups[i])
    .collect();
    // The clients are alike, so their samples of a slice pool evenly.
    let calm_latencies: Vec<Vec<Duration>> = calm
        .iter()
        .map(|g| {
            let mut v: Vec<Duration> = outs
                .iter()
                .flat_map(|o| o.latencies[(*g).clone()].iter())
                .flat_map(|r| r.kept.iter().copied())
                .collect();
            v.sort_unstable();
            v
        })
        .filter(|v| !v.is_empty())
        .collect();
    let quantile = |q| median(calm_latencies.iter().map(|v| quantile_us(v, q)).collect());
    let rate = |g: &Range<usize>| {
        loads[g.clone()].iter().map(|l| l.served_per_s).sum::<f64>() / g.len() as f64
    };
    let sum = |f: fn(&ClientOut) -> u64| outs.iter().map(f).sum::<u64>();
    senses.senses += after.engines.iter().map(|e| e.senses).sum::<u64>()
        - before.engines.iter().map(|e| e.senses).sum::<u64>();
    senses.samples += sum(|o| o.samples);
    senses.argmax_agree += sum(|o| o.argmax_agree);
    Segment {
        samples: sum(|o| o.samples),
        elapsed,
        samples_per_s: median(calm.iter().map(|g| rate(g)).collect()),
        attempted: sum(|o| o.attempted),
        failed: sum(|o| o.failed),
        latency_p50_us: quantile(0.50),
        latency_p99_us: quantile(0.99),
        requests: after.completed - before.completed,
    }
}

pub fn run(args: &Args, workload: Workload) -> Report {
    let spec = spec(workload);
    let clients = generators();
    let net = demo_network(spec.deployment.dims, spec.deployment.model_seed);
    let pool = Pool::generate(&spec, &net, args.seed, clients);
    let warm_up: Vec<_> = (0..2 * clients * spec.in_flight)
        .map(|i| Arc::clone(&pool.requests[i % pool.requests.len()]))
        .collect();
    let (server, setup_s) = spec.deployment.start_timed(&warm_up);

    let before = server.stats();
    let mut senses = Senses::default();
    let measured = crate::measure(args, |length| {
        segment(&server, &spec, &pool, length, &mut senses)
    });
    let after = server.stats();

    let mut notes = vec![format!(
        "{}: model {:?} on {:?}, {} workers, {clients} closed-loop clients x {} in flight, \
         {} samples/request, pool {} samples (digest {:016x})",
        workload.name(),
        spec.deployment.dims,
        spec.deployment.backend,
        nproc(),
        spec.in_flight,
        spec.rows_per_request,
        spec.pool_rows,
        pool.digest()
    )];
    let latency_p50 = measured.median_of(|s| s.latency_p50_us);
    let metrics = if args.trace {
        let rows = pool.rows();
        let mean_batch = layers::mean_batch(&before, &after);
        let mut m = layers::serve_metrics(&before, &after, &server, &measured, latency_p50);
        m.extend(layers::graph_metrics(&net, &rows, mean_batch));
        m.push(layers::oracle_metric(rows.len()));
        m.extend(ward::stream_not_run());
        m.extend(if spec.deployment.backend == Backend::Rram {
            layers::rram_metrics(
                &net,
                &spec.deployment.fabric,
                &spec.deployment.config(),
                &rows,
                senses,
            )
        } else {
            layers::rram_not_run()
        });
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
            "{} requests ({} samples) answered in {:.3} s over {} slices; latency p50 and p99 \
             per group of slices holding at least {REQUESTS_PER_GROUP} requests (a uniform \
             sample of at most {KEPT_PER_SLICE} per client and slice), then the median over the \
             calmer half of the groups",
            s.requests,
            s.samples,
            s.elapsed.as_secs_f64(),
            slices(Duration::from_secs_f64(args.seconds))
        ));
        if senses.senses > 0 {
            notes.push(format!(
                "senses/sample {} ({} senses over {} samples)",
                senses.senses as f64 / senses.samples.max(1) as f64,
                senses.senses,
                senses.samples
            ));
        }
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
