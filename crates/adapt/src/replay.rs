//! Bounded experience-replay buffer of sealed training segments.
//!
//! Continual learning on a drifting stream forgets the past unless every
//! update mixes fresh windows with replayed history. The buffer keeps the
//! most recent `capacity` sealed segments (FIFO eviction) and hands out
//! **deterministic** replay samples: the sample of draw `n` is a pure
//! function of `(seed, n, len)`, so two runs that sealed the same segments
//! draw bit-identical replay batches regardless of thread count, and a
//! mid-adaptation resume that restores the buffer plus the draw counter
//! continues with exactly the samples the uninterrupted run would have
//! drawn.

use serde::{Deserialize, Serialize};

/// One sealed training subsequence: `SEGMENT_LEN` consecutive windows of
/// features plus per-expert normalized targets, both flat, in the layout
/// [`deeprest_core::train::TrainSegment`] borrows.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Stream index of the segment's first window.
    pub start_window: usize,
    /// Features, `SEGMENT_LEN × feature_dim`, window-major.
    pub xs: Vec<f32>,
    /// Normalized targets, `experts × SEGMENT_LEN`, expert-major.
    pub targets: Vec<f32>,
}

/// Bounded FIFO of [`Segment`]s with seeded deterministic sampling.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplayBuffer {
    capacity: usize,
    segments: Vec<Segment>,
}

impl ReplayBuffer {
    /// An empty buffer holding at most `capacity` segments.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ReplayBuffer: capacity must be > 0");
        Self {
            capacity,
            segments: Vec::with_capacity(capacity),
        }
    }

    /// Rebuilds a buffer from checkpointed segments (truncates to
    /// `capacity` oldest-first if the checkpoint somehow overflows).
    pub(crate) fn restore(capacity: usize, mut segments: Vec<Segment>) -> Self {
        assert!(capacity > 0, "ReplayBuffer: capacity must be > 0");
        if segments.len() > capacity {
            segments.drain(..segments.len() - capacity);
        }
        segments.reserve(capacity.saturating_sub(segments.len()));
        Self { capacity, segments }
    }

    /// Number of buffered segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the buffer holds no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The buffered segments, oldest first.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Inserts a segment by **copying** `xs`/`targets` into the buffer,
    /// evicting the oldest segment when full. When evicting, the evicted
    /// segment's allocations are recycled for the new one, so a warm push
    /// into a full buffer allocates nothing (the shapes are fixed by the
    /// update geometry).
    pub fn push_copy(&mut self, start_window: usize, xs: &[f32], targets: &[f32]) {
        if self.segments.len() == self.capacity {
            let mut seg = self.segments.remove(0);
            seg.start_window = start_window;
            seg.xs.clear();
            seg.xs.extend_from_slice(xs);
            seg.targets.clear();
            seg.targets.extend_from_slice(targets);
            self.segments.push(seg);
        } else {
            self.segments.push(Segment {
                start_window,
                xs: xs.to_vec(),
                targets: targets.to_vec(),
            });
        }
    }

    /// Draws at most `k` distinct segment indices for replay draw number
    /// `draw`, written into `out` in ascending (oldest-first) order.
    ///
    /// The draw is a pure function of `(seed, draw, len)`: a partial
    /// Fisher–Yates over `scratch` driven by a splitmix64 stream keyed on
    /// `seed ^ hash(draw)`. `scratch` and `out` are caller-owned arenas;
    /// neither grows past `capacity`, so warm sampling allocates nothing.
    pub fn sample_into(
        &self,
        seed: u64,
        draw: u64,
        k: usize,
        scratch: &mut Vec<usize>,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        let len = self.segments.len();
        if len == 0 || k == 0 {
            return;
        }
        if len <= k {
            out.extend(0..len);
            return;
        }
        scratch.clear();
        scratch.extend(0..len);
        let mut state = seed ^ splitmix64(draw.wrapping_add(0x9e37_79b9_7f4a_7c15));
        for i in 0..k {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let r = splitmix64(state);
            let j = i + (r % (len - i) as u64) as usize;
            scratch.swap(i, j);
        }
        out.extend_from_slice(&scratch[..k]);
        out.sort_unstable();
    }
}

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(n: usize) -> (usize, Vec<f32>, Vec<f32>) {
        (n, vec![n as f32; 4], vec![n as f32 + 0.5; 2])
    }

    #[test]
    fn evicts_oldest_when_full() {
        let mut b = ReplayBuffer::new(2);
        for n in 0..3 {
            let (w, xs, ts) = seg(n);
            b.push_copy(w, &xs, &ts);
        }
        assert_eq!(b.len(), 2);
        assert_eq!(b.segments()[0].start_window, 1);
        assert_eq!(b.segments()[1].start_window, 2);
        assert_eq!(b.segments()[1].xs, vec![2.0; 4]);
    }

    #[test]
    fn sampling_is_deterministic_and_distinct() {
        let mut b = ReplayBuffer::new(8);
        for n in 0..8 {
            let (w, xs, ts) = seg(n);
            b.push_copy(w, &xs, &ts);
        }
        let (mut s1, mut o1) = (Vec::new(), Vec::new());
        let (mut s2, mut o2) = (Vec::new(), Vec::new());
        b.sample_into(7, 3, 4, &mut s1, &mut o1);
        b.sample_into(7, 3, 4, &mut s2, &mut o2);
        assert_eq!(o1, o2);
        assert_eq!(o1.len(), 4);
        let mut dedup = o1.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 4, "indices must be distinct");
        assert!(o1.windows(2).all(|w| w[0] < w[1]), "ascending order");

        let mut o3 = Vec::new();
        b.sample_into(7, 4, 4, &mut s1, &mut o3);
        assert_ne!(o1, o3, "different draws should differ for len=8,k=4");
    }

    #[test]
    fn sampling_takes_all_when_small() {
        let mut b = ReplayBuffer::new(8);
        for n in 0..2 {
            let (w, xs, ts) = seg(n);
            b.push_copy(w, &xs, &ts);
        }
        let (mut s, mut o) = (Vec::new(), Vec::new());
        b.sample_into(1, 0, 4, &mut s, &mut o);
        assert_eq!(o, vec![0, 1]);
    }

    #[test]
    fn json_round_trip() {
        let mut b = ReplayBuffer::new(3);
        for n in 0..4 {
            let (w, xs, ts) = seg(n);
            b.push_copy(w, &xs, &ts);
        }
        let json = serde_json::to_string(&b).unwrap();
        let back: ReplayBuffer = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
    }
}
