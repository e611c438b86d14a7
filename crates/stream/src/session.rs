//! Per-patient session state: segmentation + featurization + alarms.
//!
//! A [`Session`] turns one patient's raw chunked signal into the exact
//! feature vectors the deployed classifier was trained on: sliding-window
//! segmentation (via [`Segmenter`](crate::Segmenter)), per-window
//! normalization matching the training featurization, and layout
//! flattening ([`WindowLayout`]) into the classifier's input order.
//! The debounced [`AlarmState`] machine then turns the resulting verdict
//! stream into the clinically shaped output: an alarm that raises on K of
//! the last M positive windows and clears when the evidence fades, so a
//! single noisy window neither triggers nor silences it.

use std::collections::VecDeque;

use crate::segment::{Segmenter, SegmenterConfig, WindowMeta};

/// How each window is normalized before classification.
///
/// The training pipeline z-scores per channel with *dataset-level*
/// statistics ([`rbnn_data::Dataset::normalize_per_channel`] returns
/// them); a deployed session replays those frozen statistics with
/// [`Normalization::PerChannel`] so streamed windows match the training
/// featurization exactly. [`Normalization::PerWindow`] is the online
/// fallback when no training statistics are available (each window
/// z-scored against itself), and [`Normalization::None`] passes raw
/// samples through.
#[derive(Debug, Clone)]
pub enum Normalization {
    /// Raw samples.
    None,
    /// `(x − mean[c]) · (1 / std[c].max(1e-8))` with frozen per-channel
    /// training statistics: bit for bit what
    /// [`rbnn_data::Dataset::apply_normalization`] computes.
    PerChannel {
        /// Per-channel means (training-set statistics).
        mean: Vec<f32>,
        /// Per-channel standard deviations (training-set statistics).
        std: Vec<f32>,
    },
    /// Z-score each channel against this window's own statistics.
    PerWindow,
}

/// Flattening order of an emitted `[window × channels]` block into the
/// classifier's input vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowLayout {
    /// `[channels, window]` — channel-major, the ECG dataset layout
    /// (leads × time).
    ChannelMajor,
    /// `[window, channels]` — time-major, the EEG dataset layout
    /// (time × space image rows).
    TimeMajor,
}

/// Session configuration: geometry plus featurization.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Segmentation geometry.
    pub segmenter: SegmenterConfig,
    /// Flattening order.
    pub layout: WindowLayout,
    /// Per-window normalization.
    pub normalization: Normalization,
}

/// One classifier-ready window.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Which window of the stream this is.
    pub meta: WindowMeta,
    /// Flattened, normalized features (`window × channels` long).
    pub features: Vec<f32>,
}

/// [`Normalization`] with the frozen per-channel statistics resolved to
/// `(mean, 1/std)` once at session construction, so the per-window hot
/// path neither clones nor divides.
#[derive(Debug)]
enum ResolvedNorm {
    None,
    Frozen {
        mean: Vec<f32>,
        inv_std: Vec<f32>,
    },
    /// Per-channel scratch the window's own statistics are computed into,
    /// reused across windows.
    PerWindow {
        mean: Vec<f32>,
        inv_std: Vec<f32>,
    },
}

/// Per-patient segmentation + featurization state.
#[derive(Debug)]
pub struct Session {
    seg: Segmenter,
    layout: WindowLayout,
    norm: ResolvedNorm,
}

impl Session {
    /// A session with the given geometry and featurization.
    ///
    /// # Panics
    ///
    /// Panics on a zero geometry (see [`Segmenter::new`]) or when
    /// [`Normalization::PerChannel`] statistics do not match the channel
    /// count.
    pub fn new(cfg: SessionConfig) -> Self {
        let channels = cfg.segmenter.channels;
        let norm = match cfg.normalization {
            Normalization::None => ResolvedNorm::None,
            Normalization::PerChannel { mean, std } => {
                assert_eq!(mean.len(), channels, "mean per channel");
                assert_eq!(std.len(), channels, "std per channel");
                assert!(std.iter().all(|s| *s > 0.0), "stds must be positive");
                ResolvedNorm::Frozen {
                    mean,
                    inv_std: std.iter().map(|s| 1.0 / s.max(1e-8)).collect(),
                }
            }
            Normalization::PerWindow => ResolvedNorm::PerWindow {
                mean: vec![0.0; channels],
                inv_std: vec![0.0; channels],
            },
        };
        Self {
            seg: Segmenter::new(cfg.segmenter),
            layout: cfg.layout,
            norm,
        }
    }

    /// Feature width of every emitted window (`window × channels`).
    pub fn features_per_window(&self) -> usize {
        self.seg.config().window * self.seg.config().channels
    }

    /// Channels per frame.
    pub fn channels(&self) -> usize {
        self.seg.config().channels
    }

    /// Windows emitted so far.
    pub fn windows_emitted(&self) -> u64 {
        self.seg.emitted()
    }

    /// Feeds one chunk of channel-interleaved frames; returns the
    /// classifier-ready windows it completed (possibly none while the
    /// buffer fills, several for a large chunk).
    pub fn push_chunk(&mut self, frames: &[f32]) -> Vec<Window> {
        let mut out = Vec::new();
        let (channels, layout, norm) = (self.channels(), self.layout, &mut self.norm);
        self.seg.push(frames, &mut |meta, interleaved| {
            out.push(Window {
                meta,
                features: featurize(interleaved, channels, layout, norm),
            });
        });
        out
    }

    /// Ends the stream, applying the configured
    /// [`TailPolicy`](crate::TailPolicy) to any buffered partial window.
    pub fn finish(&mut self) -> Vec<Window> {
        let mut out = Vec::new();
        let (channels, layout, norm) = (self.channels(), self.layout, &mut self.norm);
        self.seg.flush(&mut |meta, interleaved| {
            out.push(Window {
                meta,
                features: featurize(interleaved, channels, layout, norm),
            });
        });
        out
    }
}

/// Normalizes and flattens one interleaved window.
///
/// Bit-identity contract: each channel's sum and sum of squared
/// deviations accumulate in time order, and every feature is exactly
/// `(v − mean) · inv_std`; see [`window_stats`] for how channels run side
/// by side without reassociating.
fn featurize(
    interleaved: &[f32],
    c: usize,
    layout: WindowLayout,
    norm: &mut ResolvedNorm,
) -> Vec<f32> {
    let mut out = vec![0.0f32; interleaved.len()];
    let (mean, inv_std) = match norm {
        ResolvedNorm::None => {
            let raw = std::iter::repeat(());
            lay_out(interleaved, c, layout, &mut out, raw, |v, ()| v);
            return out;
        }
        ResolvedNorm::Frozen { mean, inv_std } => (&mean[..], &inv_std[..]),
        ResolvedNorm::PerWindow { mean, inv_std } => {
            window_stats(interleaved, c, mean, inv_std);
            (&mean[..], &inv_std[..])
        }
    };
    let stats = mean.iter().copied().zip(inv_std.iter().copied());
    lay_out(interleaved, c, layout, &mut out, stats, |v, (m, s)| {
        (v - m) * s
    });
    out
}

/// Each channel's mean and `1 / max(std, 1e-8)` over the interleaved
/// window `x`, in blocks of up to 8 adjacent channels.
fn window_stats(x: &[f32], c: usize, mean: &mut [f32], inv_std: &mut [f32]) {
    match c {
        8.. => window_stats_lanes::<8>(x, c, mean, inv_std),
        4..=7 => window_stats_lanes::<4>(x, c, mean, inv_std),
        2 | 3 => window_stats_lanes::<2>(x, c, mean, inv_std),
        _ => window_stats_lanes::<1>(x, c, mean, inv_std),
    }
}

/// [`window_stats`] for blocks of `L ≤ c` adjacent channels. A block's `L`
/// sums stay in registers for the whole window, one frame at a time, so
/// every channel still reduces in time order. When `L` does not divide
/// `c`, the last block overlaps the one before it and recomputes the
/// shared channels to the same bits.
fn window_stats_lanes<const L: usize>(x: &[f32], c: usize, mean: &mut [f32], inv_std: &mut [f32]) {
    let w = x.len() / c;
    for b in (0..c).step_by(L).map(|b| b.min(c - L)) {
        let lanes = || x.chunks_exact(c).map(|frame| &frame[b..b + L]);
        let mut sum = [0.0f32; L];
        for frame in lanes() {
            for (s, &v) in sum.iter_mut().zip(frame) {
                *s += v;
            }
        }
        let m = sum.map(|s| s / w as f32);
        let mut sq = [0.0f32; L];
        for frame in lanes() {
            for ((q, &v), &m) in sq.iter_mut().zip(frame).zip(&m) {
                let d = v - m;
                *q += d * d;
            }
        }
        mean[b..b + L].copy_from_slice(&m);
        for (s, q) in inv_std[b..b + L].iter_mut().zip(sq) {
            *s = 1.0 / (q / w as f32).sqrt().max(1e-8);
        }
    }
}

/// Writes the interleaved window `x` into `out` in `layout` order, mapping
/// each sample through `f` with its channel's parameter from `params`.
#[inline(always)]
fn lay_out<P: Copy>(
    x: &[f32],
    c: usize,
    layout: WindowLayout,
    out: &mut [f32],
    params: impl Iterator<Item = P> + Clone,
    f: impl Fn(f32, P) -> f32,
) {
    match layout {
        WindowLayout::ChannelMajor => {
            let w = x.len() / c;
            for ((row, ch), p) in out.chunks_exact_mut(w).zip(0..c).zip(params) {
                for (o, frame) in row.iter_mut().zip(x.chunks_exact(c)) {
                    *o = f(frame[ch], p);
                }
            }
        }
        WindowLayout::TimeMajor => {
            for (row, frame) in out.chunks_exact_mut(c).zip(x.chunks_exact(c)) {
                for ((o, &v), p) in row.iter_mut().zip(frame).zip(params.clone()) {
                    *o = f(v, p);
                }
            }
        }
    }
}

/// Debounce policy for the alarm state machine.
#[derive(Debug, Clone)]
pub struct AlarmConfig {
    /// Positive windows required among the last [`m`](Self::m) to raise.
    pub k: usize,
    /// History length in windows.
    pub m: usize,
    /// The class index that counts as positive (e.g.
    /// [`rbnn_data::ecg::INVERTED`]).
    pub positive_class: usize,
}

impl Default for AlarmConfig {
    fn default() -> Self {
        Self {
            k: 3,
            m: 5,
            positive_class: 1,
        }
    }
}

/// A change of alarm state produced by one verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlarmEvent {
    /// K-of-M evidence reached: the alarm turned on.
    Raised,
    /// Evidence fell below K-of-M: the alarm turned off.
    Cleared,
}

/// Debounced K-of-M alarm: raises when at least `k` of the last `m`
/// windows were positive, clears when the count drops below `k` again.
/// Single spurious windows (a motion artifact, one marginal-sense flip on
/// worn RRAM) therefore neither trigger nor silence it.
#[derive(Debug)]
pub struct AlarmState {
    cfg: AlarmConfig,
    recent: VecDeque<bool>,
    active: bool,
}

impl AlarmState {
    /// A quiet alarm with the given debounce policy.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < k ≤ m`.
    pub fn new(cfg: AlarmConfig) -> Self {
        assert!(cfg.k > 0 && cfg.k <= cfg.m, "need 0 < k <= m");
        Self {
            recent: VecDeque::with_capacity(cfg.m),
            cfg,
            active: false,
        }
    }

    /// Whether the alarm is currently raised.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Feeds one verdict; returns the transition it caused, if any.
    pub fn update(&mut self, class: usize) -> Option<AlarmEvent> {
        if self.recent.len() == self.cfg.m {
            self.recent.pop_front();
        }
        self.recent.push_back(class == self.cfg.positive_class);
        let positives = self.recent.iter().filter(|p| **p).count();
        match (self.active, positives >= self.cfg.k) {
            (false, true) => {
                self.active = true;
                Some(AlarmEvent::Raised)
            }
            (true, false) => {
                self.active = false;
                Some(AlarmEvent::Cleared)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::TailPolicy;
    use rbnn_data::Dataset;
    use rbnn_tensor::Tensor;

    /// The straightforward featurization the kernel must reproduce bit for
    /// bit: per-window statistics in fresh vectors, one indexed closure
    /// call per output element.
    fn featurize_reference(
        interleaved: &[f32],
        cfg: &SegmenterConfig,
        layout: WindowLayout,
        norm: &ResolvedNorm,
    ) -> Vec<f32> {
        let (c, w) = (cfg.channels, cfg.window);
        assert_eq!(interleaved.len(), c * w);
        let window_stats: Option<(Vec<f32>, Vec<f32>)> = match norm {
            ResolvedNorm::PerWindow { .. } => {
                let mut mean = vec![0.0f32; c];
                let mut var = vec![0.0f32; c];
                for frame in interleaved.chunks_exact(c) {
                    for (ch, &v) in frame.iter().enumerate() {
                        mean[ch] += v;
                    }
                }
                for m in &mut mean {
                    *m /= w as f32;
                }
                for frame in interleaved.chunks_exact(c) {
                    for (ch, &v) in frame.iter().enumerate() {
                        let d = v - mean[ch];
                        var[ch] += d * d;
                    }
                }
                let inv: Vec<f32> = var
                    .iter()
                    .map(|v| 1.0 / (v / w as f32).sqrt().max(1e-8))
                    .collect();
                Some((mean, inv))
            }
            _ => None,
        };
        let stats: Option<(&[f32], &[f32])> = match norm {
            ResolvedNorm::None => None,
            ResolvedNorm::Frozen { mean, inv_std } => Some((mean, inv_std)),
            ResolvedNorm::PerWindow { .. } => window_stats
                .as_ref()
                .map(|(mean, inv)| (mean.as_slice(), inv.as_slice())),
        };
        let value = |t: usize, ch: usize| -> f32 {
            let v = interleaved[t * c + ch];
            match stats {
                None => v,
                Some((mean, inv)) => (v - mean[ch]) * inv[ch],
            }
        };
        let mut out = Vec::with_capacity(c * w);
        match layout {
            WindowLayout::ChannelMajor => {
                for ch in 0..c {
                    for t in 0..w {
                        out.push(value(t, ch));
                    }
                }
            }
            WindowLayout::TimeMajor => {
                for t in 0..w {
                    for ch in 0..c {
                        out.push(value(t, ch));
                    }
                }
            }
        }
        out
    }

    /// Deterministic uniform draws in `[-1, 1)` (xorshift64).
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> f32 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        }
    }

    /// `frames` interleaved frames whose channels cycle (offset by `kind`)
    /// through the featurization's edge cases: ordinary values, constant
    /// channels (the `1e-8` variance floor), signed zeros, and magnitudes
    /// large enough that squared deviations overflow.
    fn edge_signal(channels: usize, frames: usize, kind: usize, seed: u64) -> Vec<f32> {
        let mut d = Draws(seed | 1);
        let mut x = Vec::with_capacity(channels * frames);
        for t in 0..frames {
            for ch in 0..channels {
                let r = d.next();
                x.push(match (ch + kind) % 6 {
                    0 => 3.0 * r + 0.5,
                    1 => 7.25,
                    2 => 0.0,
                    3 if t % 3 == 0 => -0.0,
                    3 if t % 3 == 1 => 0.0,
                    3 => r * 1e-3,
                    4 => r * 3e15,
                    _ => r * 1e20,
                });
            }
        }
        x
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    fn normalizations(channels: usize) -> Vec<Normalization> {
        vec![
            Normalization::None,
            Normalization::PerChannel {
                mean: (0..channels).map(|ch| ch as f32 * 0.37 - 1.1).collect(),
                std: (0..channels).map(|ch| 0.3 + ch as f32 * 1.7).collect(),
            },
            Normalization::PerWindow,
        ]
    }

    #[test]
    fn kernel_matches_reference_bit_for_bit() {
        for channels in [1, 2, 3, 5, 8, 12, 22] {
            for window in [1, 5, 360] {
                for layout in [WindowLayout::ChannelMajor, WindowLayout::TimeMajor] {
                    for norm in normalizations(channels) {
                        for kind in 0..6 {
                            let cfg = SegmenterConfig {
                                channels,
                                window,
                                stride: window,
                                tail: TailPolicy::Drop,
                            };
                            let mut s = Session::new(SessionConfig {
                                segmenter: cfg.clone(),
                                layout,
                                normalization: norm.clone(),
                            });
                            let frames = 3 * window;
                            let seed = (channels * 1000 + window * 10 + kind) as u64;
                            let x = edge_signal(channels, frames, kind, seed);
                            let wins = s.push_chunk(&x);
                            assert_eq!(wins.len(), 3);
                            for (i, win) in wins.iter().enumerate() {
                                let raw = &x[i * window * channels..(i + 1) * window * channels];
                                let want = featurize_reference(raw, &cfg, layout, &s.norm);
                                assert_eq!(
                                    bits(&win.features),
                                    bits(&want),
                                    "c={channels} w={window} {layout:?} {norm:?} kind={kind} win={i}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn chunked_push_matches_one_shot_push() {
        for channels in [1, 3, 12] {
            for layout in [WindowLayout::ChannelMajor, WindowLayout::TimeMajor] {
                for norm in normalizations(channels) {
                    let (window, stride) = (36, 17);
                    let cfg = SegmenterConfig {
                        channels,
                        window,
                        stride,
                        tail: TailPolicy::Pad,
                    };
                    let mk = || {
                        Session::new(SessionConfig {
                            segmenter: cfg.clone(),
                            layout,
                            normalization: norm.clone(),
                        })
                    };
                    let x = edge_signal(channels, 301, channels, 9);
                    let mut whole = mk();
                    let mut want = whole.push_chunk(&x);
                    want.extend(whole.finish());
                    let mut chunked = mk();
                    let mut got = Vec::new();
                    let mut rest = &x[..];
                    for n in [1, 7, 0, 120, 13, 2].into_iter().cycle() {
                        if rest.is_empty() {
                            break;
                        }
                        let (head, tail) = rest.split_at((n * channels).min(rest.len()));
                        got.extend(chunked.push_chunk(head));
                        rest = tail;
                    }
                    got.extend(chunked.finish());
                    assert_eq!(got.len(), want.len());
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.meta, w.meta);
                        assert_eq!(bits(&g.features), bits(&w.features), "{norm:?}");
                    }
                    // The padded tail went through the same kernel.
                    let tail = want.last().expect("padded tail window");
                    let mut raw = x[tail.meta.start_frame as usize * channels..].to_vec();
                    raw.resize(window * channels, 0.0);
                    let reference = featurize_reference(&raw, &cfg, layout, &whole.norm);
                    assert_eq!(bits(&tail.features), bits(&reference));
                }
            }
        }
    }

    #[test]
    fn frozen_statistics_match_dataset_normalization_bit_for_bit() {
        let (channels, window) = (5, 40);
        let mean = vec![0.1f32, -2.3, 7.0, 1e-3, 0.0];
        // Not powers of two, so `(v − m) / std` and `(v − m) · (1 / std)`
        // round differently; the last is below the `1e-8` floor.
        let std = vec![0.3f32, 1.7, 2.9e-3, 11.1, 4e-9];
        let x = edge_signal(channels, window, 0, 77);
        let mut s = session(
            channels,
            window,
            window,
            WindowLayout::ChannelMajor,
            Normalization::PerChannel {
                mean: mean.clone(),
                std: std.clone(),
            },
        );
        let wins = s.push_chunk(&x);
        let channel_major: Vec<f32> = (0..channels)
            .flat_map(|ch| x.iter().skip(ch).step_by(channels).copied())
            .collect();
        let mut ds = Dataset::new(
            Tensor::from_vec(channel_major, [1, channels, window]),
            vec![0],
            2,
        );
        ds.apply_normalization(&mean, &std);
        assert_eq!(bits(&wins[0].features), bits(ds.samples().as_slice()));
    }

    fn session(
        channels: usize,
        window: usize,
        stride: usize,
        layout: WindowLayout,
        norm: Normalization,
    ) -> Session {
        Session::new(SessionConfig {
            segmenter: SegmenterConfig {
                channels,
                window,
                stride,
                tail: TailPolicy::Drop,
            },
            layout,
            normalization: norm,
        })
    }

    #[test]
    fn channel_major_layout_matches_ecg_dataset_order() {
        // 2 channels, frames [i, 10+i]: channel-major output lists channel
        // 0's timeline then channel 1's.
        let frames: Vec<f32> = (0..4).flat_map(|i| [i as f32, 10.0 + i as f32]).collect();
        let mut s = session(2, 4, 4, WindowLayout::ChannelMajor, Normalization::None);
        let wins = s.push_chunk(&frames);
        assert_eq!(wins.len(), 1);
        assert_eq!(
            wins[0].features,
            vec![0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0]
        );
    }

    #[test]
    fn time_major_layout_matches_eeg_dataset_order() {
        let frames: Vec<f32> = (0..4).flat_map(|i| [i as f32, 10.0 + i as f32]).collect();
        let mut s = session(2, 4, 4, WindowLayout::TimeMajor, Normalization::None);
        let wins = s.push_chunk(&frames);
        assert_eq!(
            wins[0].features,
            vec![0.0, 10.0, 1.0, 11.0, 2.0, 12.0, 3.0, 13.0]
        );
    }

    #[test]
    fn per_channel_normalization_replays_training_stats() {
        let frames = vec![3.0f32, -2.0, 5.0, 0.0]; // 2 frames × 2 channels
        let mut s = session(
            2,
            2,
            2,
            WindowLayout::TimeMajor,
            Normalization::PerChannel {
                mean: vec![1.0, -1.0],
                std: vec![2.0, 0.5],
            },
        );
        let wins = s.push_chunk(&frames);
        assert_eq!(wins[0].features, vec![1.0, -2.0, 2.0, 2.0]);
    }

    #[test]
    fn per_window_normalization_zero_means_each_channel() {
        let frames: Vec<f32> = (0..6).flat_map(|i| [i as f32, 100.0]).collect();
        let mut s = session(
            2,
            6,
            6,
            WindowLayout::ChannelMajor,
            Normalization::PerWindow,
        );
        let wins = s.push_chunk(&frames);
        let f = &wins[0].features;
        let mean0: f32 = f[..6].iter().sum::<f32>() / 6.0;
        assert!(mean0.abs() < 1e-6);
        // Constant channel: zero variance clamps to the epsilon floor
        // instead of dividing by zero.
        assert!(f[6..].iter().all(|v| v.is_finite() && v.abs() < 1e-4));
    }

    #[test]
    fn alarm_debounces_and_clears() {
        let mut a = AlarmState::new(AlarmConfig {
            k: 2,
            m: 3,
            positive_class: 1,
        });
        assert_eq!(a.update(1), None); // 1 of 3
        assert!(!a.active());
        assert_eq!(a.update(0), None);
        assert_eq!(a.update(1), Some(AlarmEvent::Raised)); // 2 of last 3
        assert!(a.active());
        assert_eq!(a.update(1), None); // still raised
        assert_eq!(a.update(0), None); // 2 of last 3 — holds
        assert_eq!(a.update(0), Some(AlarmEvent::Cleared)); // 1 of last 3
        assert!(!a.active());
    }

    #[test]
    fn single_spike_never_raises() {
        let mut a = AlarmState::new(AlarmConfig::default()); // 3 of 5
        for _ in 0..10 {
            assert_eq!(a.update(1), None);
            for _ in 0..6 {
                assert_eq!(a.update(0), None);
            }
        }
    }
}
