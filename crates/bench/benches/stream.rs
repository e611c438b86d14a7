//! Criterion bench of `Session::push_chunk`, the per-patient
//! segment-and-featurize step of the streaming path, at ward geometry:
//! 12 channels, 360-frame windows at stride 180, fed in 120-frame chunks,
//! `PerWindow` z-scoring into the `ChannelMajor` layout. One iteration
//! pushes three chunks, which complete exactly two windows.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rbnn_stream::{
    Normalization, SegmenterConfig, Session, SessionConfig, TailPolicy, WindowLayout,
};

const CHANNELS: usize = 12;
const WINDOW: usize = 360;
const STRIDE: usize = 180;
const CHUNK_FRAMES: usize = 120;

fn bench_push_chunk(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    // Eight windows of signal, replayed cyclically.
    let signal: Vec<f32> = (0..8 * WINDOW * CHANNELS)
        .map(|i| (i as f32 * 0.01).sin() + rng.gen_range(-0.1f32..0.1))
        .collect();
    let chunks: Vec<&[f32]> = signal.chunks_exact(CHUNK_FRAMES * CHANNELS).collect();
    let mut session = Session::new(SessionConfig {
        segmenter: SegmenterConfig {
            channels: CHANNELS,
            window: WINDOW,
            stride: STRIDE,
            tail: TailPolicy::Drop,
        },
        layout: WindowLayout::ChannelMajor,
        normalization: Normalization::PerWindow,
    });
    let mut next = chunks.iter().cycle();
    // Fill the buffer so every timed iteration completes two windows.
    for _ in 0..3 {
        session.push_chunk(next.next().expect("cycled"));
    }
    let mut group = c.benchmark_group("stream_session");
    group.throughput(Throughput::Elements((3 * CHUNK_FRAMES / STRIDE) as u64));
    group.bench_function("push_chunk_ward_12x360", |b| {
        b.iter(|| {
            for _ in 0..3 {
                black_box(session.push_chunk(next.next().expect("cycled")));
            }
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_push_chunk
}
criterion_main!(benches);
