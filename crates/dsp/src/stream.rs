//! Streaming substrate: a sample ring buffer and a sliding-window
//! scheduler.
//!
//! Together they turn an arbitrary sequence of sample chunks (one sample
//! per callback, a second of samples per radio packet, a whole session at
//! once — the producer decides) into a deterministic sequence of
//! fixed-length analysis windows. Windows are addressed in *absolute
//! sample coordinates*: window `i` covers samples
//! `[i·stride, i·stride + window_len)` of the stream, independent of how
//! the samples were chunked on the way in. That chunking-invariance is
//! what makes a streaming pipeline bit-identical to its batch twin, and
//! the tests here sweep random chunk splits to pin it.

use crate::error::DspError;

/// Fixed-capacity ring over the most recent samples of a stream.
///
/// Pushing never fails; older samples are overwritten. Reads address the
/// stream by absolute sample index and fail (rather than alias) when the
/// requested span has already been overwritten.
///
/// The buffer is allocated on the first non-empty push, so a ring that
/// never sees a sample (a session fed pre-extracted rows) holds no
/// capacity-sized allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRing {
    /// Retained samples; empty until the first non-empty push, then
    /// exactly `capacity` long.
    buf: Vec<f64>,
    capacity: usize,
    /// Total samples ever pushed (absolute stream position).
    total: u64,
}

impl SampleRing {
    /// Ring retaining the last `capacity` samples.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] when `capacity == 0`.
    pub fn new(capacity: usize) -> Result<Self, DspError> {
        if capacity == 0 {
            return Err(DspError::InvalidParameter {
                name: "capacity",
                reason: "must be >= 1",
            });
        }
        Ok(SampleRing {
            buf: Vec::new(),
            capacity,
            total: 0,
        })
    }

    /// Retained-sample capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Heap bytes the ring holds: 0 before the first non-empty push,
    /// `capacity × 8` after it.
    pub fn heap_bytes(&self) -> usize {
        self.buf.capacity() * std::mem::size_of::<f64>()
    }

    /// Total samples pushed since creation (absolute stream length).
    pub fn total_pushed(&self) -> u64 {
        self.total
    }

    /// Absolute index of the oldest sample still retained.
    pub fn oldest_retained(&self) -> u64 {
        self.total.saturating_sub(self.capacity as u64)
    }

    /// Appends a chunk of any length, overwriting the oldest samples.
    /// Chunks longer than the capacity retain only their tail (their
    /// earlier samples are past data the ring could never have held).
    pub fn push(&mut self, chunk: &[f64]) {
        if chunk.is_empty() {
            return;
        }
        let cap = self.capacity;
        if self.buf.is_empty() {
            self.buf = vec![0.0; cap];
        }
        let skip = chunk.len().saturating_sub(cap);
        let mut pos = ((self.total + skip as u64) % cap as u64) as usize;
        let mut rest = &chunk[skip..];
        while !rest.is_empty() {
            let n = (cap - pos).min(rest.len());
            self.buf[pos..pos + n].copy_from_slice(&rest[..n]);
            pos = (pos + n) % cap;
            rest = &rest[n..];
        }
        self.total += chunk.len() as u64;
    }

    /// Copies `out.len()` samples starting at absolute stream index
    /// `start` into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] when the span reaches past
    /// the stream head or has already been overwritten.
    pub fn copy_into(&self, start: u64, out: &mut [f64]) -> Result<(), DspError> {
        let len = out.len() as u64;
        if start + len > self.total {
            return Err(DspError::InvalidParameter {
                name: "start",
                reason: "span reaches past the samples pushed so far",
            });
        }
        if start < self.oldest_retained() {
            return Err(DspError::InvalidParameter {
                name: "start",
                reason: "span has been overwritten (ring too small)",
            });
        }
        let cap = self.capacity;
        let mut pos = (start % cap as u64) as usize;
        let mut written = 0usize;
        while written < out.len() {
            let n = (cap - pos).min(out.len() - written);
            out[written..written + n].copy_from_slice(&self.buf[pos..pos + n]);
            written += n;
            pos = (pos + n) % cap;
        }
        Ok(())
    }
}

/// One complete analysis window in absolute stream coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpan {
    /// Window index (0-based).
    pub index: u64,
    /// Absolute index of the window's first sample (`index × stride`).
    pub start: u64,
    /// Window length in samples.
    pub len: usize,
}

/// Chunk-fed sliding-window scheduler.
///
/// Feed it sample *counts* as they arrive; it reports which windows became
/// complete, by index. Window `i` spans
/// `[i·stride, i·stride + window_len)` regardless of chunking, so any two
/// chunkings of the same stream yield the same window sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowScheduler {
    window_len: usize,
    stride: usize,
    seen: u64,
    emitted: u64,
}

impl WindowScheduler {
    /// Scheduler for `window_len`-sample windows every `stride` samples
    /// (`stride == window_len` gives the paper's non-overlapping
    /// protocol).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] when either length is zero.
    pub fn new(window_len: usize, stride: usize) -> Result<Self, DspError> {
        if window_len == 0 {
            return Err(DspError::InvalidParameter {
                name: "window_len",
                reason: "must be >= 1",
            });
        }
        if stride == 0 {
            return Err(DspError::InvalidParameter {
                name: "stride",
                reason: "must be >= 1",
            });
        }
        Ok(WindowScheduler {
            window_len,
            stride,
            seen: 0,
            emitted: 0,
        })
    }

    /// Window length in samples.
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// Stride between window starts in samples.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Total samples accounted so far.
    pub fn samples_seen(&self) -> u64 {
        self.seen
    }

    /// Windows emitted so far.
    pub fn windows_emitted(&self) -> u64 {
        self.emitted
    }

    /// Smallest [`SampleRing`] capacity that guarantees every window is
    /// still retained when the driver drains after each `≤ stride`-sample
    /// push (the contract [`WindowScheduler::on_samples`] documents).
    pub fn min_ring_capacity(&self) -> usize {
        self.window_len + self.stride
    }

    /// Accounts `n` new samples and returns the indices of windows that
    /// just became complete (often empty, more than one after a large
    /// chunk). Drivers that bound their ring by
    /// [`WindowScheduler::min_ring_capacity`] must feed chunks of at most
    /// `stride` samples between drains; [`WindowScheduler::span`] converts
    /// an index to sample coordinates.
    pub fn on_samples(&mut self, n: usize) -> std::ops::Range<u64> {
        self.seen += n as u64;
        let complete = if self.seen >= self.window_len as u64 {
            (self.seen - self.window_len as u64) / self.stride as u64 + 1
        } else {
            0
        };
        let fresh = self.emitted..complete;
        self.emitted = complete;
        fresh
    }

    /// Sample coordinates of window `index`.
    pub fn span(&self, index: u64) -> WindowSpan {
        WindowSpan {
            index,
            start: index * self.stride as u64,
            len: self.window_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64* — deterministic chunk-size driver for the sweeps.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    #[test]
    fn ring_allocates_on_first_push() {
        let mut ring = SampleRing::new(4096).unwrap();
        assert_eq!(ring.capacity(), 4096);
        assert_eq!(ring.heap_bytes(), 0);
        // Empty pushes and empty reads stay allocation-free.
        ring.push(&[]);
        ring.copy_into(0, &mut []).unwrap();
        assert_eq!(ring.heap_bytes(), 0);
        assert!(ring.copy_into(0, &mut [0.0; 1]).is_err());
        ring.push(&[1.0]);
        assert_eq!(ring.heap_bytes(), 4096 * 8);
        let mut out = [0.0; 1];
        ring.copy_into(0, &mut out).unwrap();
        assert_eq!(out, [1.0]);
    }

    #[test]
    fn ring_retains_the_stream_tail() {
        let mut ring = SampleRing::new(8).unwrap();
        assert_eq!(ring.capacity(), 8);
        ring.push(&[1.0, 2.0, 3.0]);
        assert_eq!(ring.total_pushed(), 3);
        assert_eq!(ring.oldest_retained(), 0);
        let mut out = [0.0; 3];
        ring.copy_into(0, &mut out).unwrap();
        assert_eq!(out, [1.0, 2.0, 3.0]);
        // Push past capacity: oldest samples fall off.
        ring.push(&[4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(ring.total_pushed(), 10);
        assert_eq!(ring.oldest_retained(), 2);
        let mut tail = [0.0; 8];
        ring.copy_into(2, &mut tail).unwrap();
        assert_eq!(tail, [3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        // Overwritten and not-yet-pushed spans are rejected.
        assert!(ring.copy_into(1, &mut tail).is_err());
        assert!(ring.copy_into(9, &mut [0.0; 2]).is_err());
    }

    #[test]
    fn oversized_chunk_keeps_only_its_tail() {
        let mut ring = SampleRing::new(4).unwrap();
        let big: Vec<f64> = (0..11).map(f64::from).collect();
        ring.push(&big);
        assert_eq!(ring.total_pushed(), 11);
        let mut out = [0.0; 4];
        ring.copy_into(7, &mut out).unwrap();
        assert_eq!(out, [7.0, 8.0, 9.0, 10.0]);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(SampleRing::new(0).is_err());
        assert!(WindowScheduler::new(0, 1).is_err());
        assert!(WindowScheduler::new(1, 0).is_err());
    }

    #[test]
    fn scheduler_emits_expected_boundaries() {
        let mut s = WindowScheduler::new(4, 2).unwrap();
        assert_eq!(s.on_samples(3), 0..0); // 3 < window
        assert_eq!(s.on_samples(1), 0..1); // window 0 at [0, 4)
        assert_eq!(s.on_samples(4), 1..3); // windows 1 [2,6) and 2 [4,8)
        assert_eq!(
            s.span(2),
            WindowSpan {
                index: 2,
                start: 4,
                len: 4
            }
        );
        assert_eq!(s.windows_emitted(), 3);
        assert_eq!(s.samples_seen(), 8);
        assert_eq!(s.min_ring_capacity(), 6);
    }

    /// Satellite requirement: a deterministic xorshift sweep over chunk
    /// sizes (1 sample up to multiple windows) must produce identical
    /// window boundaries regardless of chunking, and the ring must hand
    /// back exactly the underlying signal for every window.
    #[test]
    fn chunking_never_changes_window_boundaries_or_contents() {
        let window = 64;
        let stride = 48;
        let total = 1000usize;
        let signal: Vec<f64> = (0..total).map(|i| (i as f64 * 0.37).sin()).collect();

        // Reference: everything in one push.
        let mut reference = Vec::new();
        let mut s = WindowScheduler::new(window, stride).unwrap();
        for idx in s.on_samples(total) {
            reference.push(s.span(idx));
        }
        assert!(reference.len() > 10);

        let mut rng = XorShift(0x5EED_CAFE);
        for _round in 0..20 {
            let mut sched = WindowScheduler::new(window, stride).unwrap();
            let mut ring = SampleRing::new(sched.min_ring_capacity()).unwrap();
            let mut spans = Vec::new();
            let mut scratch = vec![0.0; window];
            let mut fed = 0usize;
            while fed < total {
                // Chunk sizes from 1 sample to ~3 windows.
                let chunk = 1 + (rng.next() as usize) % (3 * window);
                let chunk = chunk.min(total - fed);
                let samples = &signal[fed..fed + chunk];
                // Respect the ring bound: sub-feed at most `stride` at a
                // time, draining complete windows after each sub-feed.
                for sub in samples.chunks(stride) {
                    ring.push(sub);
                    for idx in sched.on_samples(sub.len()) {
                        let span = sched.span(idx);
                        ring.copy_into(span.start, &mut scratch).unwrap();
                        let lo = span.start as usize;
                        assert_eq!(scratch, signal[lo..lo + span.len], "window {idx}");
                        spans.push(span);
                    }
                }
                fed += chunk;
            }
            assert_eq!(spans, reference);
        }
    }
}
