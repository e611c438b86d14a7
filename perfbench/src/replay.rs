//! A [`SignalSource`] that replays a pre-generated recording, so signal
//! synthesis stays out of the timed phase.

use std::sync::Arc;
use std::time::Instant;

use rbnn_data::stream::SignalSource;

use crate::trace;

/// Replays one channel-interleaved recording in a loop: the frame
/// sequence is the recording repeated end to end, whatever the chunk
/// sizes asked for. With a stop time the stream ends (`next_chunk`
/// returns 0) at the first request made at or after it.
#[derive(Debug, Clone)]
pub struct ReplaySource {
    recording: Arc<Vec<f32>>,
    channels: usize,
    sample_rate: f32,
    /// Next frame to hand out, as an index into the recording.
    pos: usize,
    stop_at: Option<Instant>,
}

impl ReplaySource {
    /// A source replaying `recording` (`channels` interleaved) from its
    /// first frame.
    ///
    /// # Panics
    ///
    /// Panics if the recording is empty or not a whole number of frames.
    pub fn new(
        recording: Arc<Vec<f32>>,
        channels: usize,
        sample_rate: f32,
        stop_at: Option<Instant>,
    ) -> Self {
        assert!(
            channels > 0 && !recording.is_empty() && recording.len().is_multiple_of(channels),
            "a recording is a non-empty whole number of frames"
        );
        Self {
            recording,
            channels,
            sample_rate,
            pos: 0,
            stop_at,
        }
    }
}

impl SignalSource for ReplaySource {
    fn channels(&self) -> usize {
        self.channels
    }

    fn sample_rate(&self) -> f32 {
        self.sample_rate
    }

    fn next_chunk(&mut self, max_frames: usize, out: &mut Vec<f32>) -> usize {
        trace::span("stream.source.next_chunk", || {
            if self.stop_at.is_some_and(|t| Instant::now() >= t) {
                return 0;
            }
            let c = self.channels;
            let frames = self.recording.len() / c;
            let mut produced = 0;
            while produced < max_frames {
                let take = (frames - self.pos).min(max_frames - produced);
                out.extend_from_slice(&self.recording[self.pos * c..(self.pos + take) * c]);
                self.pos = (self.pos + take) % frames;
                produced += take;
            }
            produced
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ward;
    use rbnn_data::stream::collect_frames;

    fn recording(frames: usize, channels: usize) -> Arc<Vec<f32>> {
        Arc::new((0..frames * channels).map(|i| i as f32).collect())
    }

    #[test]
    fn frame_sequence_is_chunk_size_invariant() {
        let rec = recording(37, 3);
        let mut one = ReplaySource::new(Arc::clone(&rec), 3, 360.0, None);
        let whole = collect_frames(&mut one, 200);
        for chunk in [1, 5, 36, 37, 38, 120] {
            let mut src = ReplaySource::new(Arc::clone(&rec), 3, 360.0, None);
            let mut got = Vec::new();
            while got.len() < whole.len() {
                let want = chunk.min((whole.len() - got.len()) / 3);
                assert_eq!(src.next_chunk(want, &mut got), want);
            }
            assert_eq!(got, whole, "chunk size {chunk}");
        }
        // The sequence is the recording repeated end to end.
        for (i, v) in whole.iter().enumerate() {
            assert_eq!(*v, rec[i % rec.len()]);
        }
    }

    #[test]
    fn stream_ends_at_the_stop_time() {
        let mut src = ReplaySource::new(recording(8, 2), 2, 360.0, Some(Instant::now()));
        assert_eq!(src.next_chunk(4, &mut Vec::new()), 0);
    }

    /// The windows the router's sessions cut from a replayed recording
    /// are the offline segmentation of the same frames, and repeat with
    /// the recording's period — the identity the ward workload's output
    /// check rests on.
    #[test]
    fn replayed_windows_equal_offline_segmentation() {
        let patients = ward::Patients::generate(7, 2);
        for p in 0..2 {
            let rec = patients.recording(p);
            let period = patients.period_windows();
            let mut src = ReplaySource::new(Arc::clone(&rec), ward::CHANNELS, 360.0, None);
            let mut session = ward::session();
            let mut streamed = Vec::new();
            let mut chunk = Vec::new();
            while streamed.len() < 2 * period + 3 {
                chunk.clear();
                let got = src.next_chunk(ward::CHUNK_FRAMES, &mut chunk);
                streamed.extend(session.push_chunk(&chunk[..got * ward::CHANNELS]));
            }
            let frames_needed = (streamed.len() - 1) * ward::STRIDE + ward::WINDOW;
            let mut offline_src = ReplaySource::new(rec, ward::CHANNELS, 360.0, None);
            let frames = collect_frames(&mut offline_src, frames_needed);
            let offline = ward::session().push_chunk(&frames);
            assert_eq!(offline.len(), streamed.len());
            let one_period = ward::one_period_windows(&patients, p);
            for (i, (s, o)) in streamed.iter().zip(&offline).enumerate() {
                assert_eq!(s.meta, o.meta);
                assert_eq!(s.features, o.features, "patient {p} window {i}");
                assert_eq!(s.features, one_period[i % period].features);
            }
        }
    }
}
