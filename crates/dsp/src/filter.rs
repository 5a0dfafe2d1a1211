//! IIR (biquad) and FIR filtering.
//!
//! Butterworth sections are designed with the RBJ cookbook formulas, and a
//! `filtfilt` forward–backward pass provides zero-phase filtering for the
//! feature-extraction front end.

// lint: allow-file(hot-index) — filter-kernel idiom: taps index a window whose
// length is validated at entry; offsets stay within `i` which walks the slice.
use crate::error::DspError;
use crate::kernels::{self, SosSection};
use std::f64::consts::PI;

/// A second-order IIR section (biquad) in direct form I:
/// `y[n] = (b0 x[n] + b1 x[n-1] + b2 x[n-2] - a1 y[n-1] - a2 y[n-2])`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Biquad {
    /// Feed-forward coefficients.
    pub b: [f64; 3],
    /// Feedback coefficients `a1, a2` (with `a0` normalised to 1).
    pub a: [f64; 2],
}

impl Biquad {
    /// Identity (pass-through) section.
    pub fn identity() -> Self {
        Biquad {
            b: [1.0, 0.0, 0.0],
            a: [0.0, 0.0],
        }
    }

    /// Second-order Butterworth low-pass at cut-off `fc` Hz for sampling
    /// rate `fs` (RBJ cookbook with Q = 1/sqrt(2)).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] unless `0 < fc < fs/2`.
    pub fn butterworth_lowpass(fc: f64, fs: f64) -> Result<Self, DspError> {
        check_fc(fc, fs)?;
        let w0 = 2.0 * PI * fc / fs;
        let alpha = w0.sin() / (2.0 * std::f64::consts::FRAC_1_SQRT_2);
        let cw = w0.cos();
        let a0 = 1.0 + alpha;
        Ok(Biquad {
            b: [
                (1.0 - cw) / 2.0 / a0,
                (1.0 - cw) / a0,
                (1.0 - cw) / 2.0 / a0,
            ],
            a: [-2.0 * cw / a0, (1.0 - alpha) / a0],
        })
    }

    /// Second-order Butterworth high-pass at cut-off `fc` Hz.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] unless `0 < fc < fs/2`.
    pub fn butterworth_highpass(fc: f64, fs: f64) -> Result<Self, DspError> {
        check_fc(fc, fs)?;
        let w0 = 2.0 * PI * fc / fs;
        let alpha = w0.sin() / (2.0 * std::f64::consts::FRAC_1_SQRT_2);
        let cw = w0.cos();
        let a0 = 1.0 + alpha;
        Ok(Biquad {
            b: [
                (1.0 + cw) / 2.0 / a0,
                -(1.0 + cw) / a0,
                (1.0 + cw) / 2.0 / a0,
            ],
            a: [-2.0 * cw / a0, (1.0 - alpha) / a0],
        })
    }

    /// Band-pass biquad (constant peak gain) centred at `f0` with quality
    /// factor `q`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] unless `0 < f0 < fs/2` and
    /// `q > 0`.
    pub fn bandpass(f0: f64, q: f64, fs: f64) -> Result<Self, DspError> {
        check_fc(f0, fs)?;
        if q <= 0.0 {
            return Err(DspError::InvalidParameter {
                name: "q",
                reason: "must be positive",
            });
        }
        let w0 = 2.0 * PI * f0 / fs;
        let alpha = w0.sin() / (2.0 * q);
        let cw = w0.cos();
        let a0 = 1.0 + alpha;
        Ok(Biquad {
            b: [alpha / a0, 0.0, -alpha / a0],
            a: [-2.0 * cw / a0, (1.0 - alpha) / a0],
        })
    }

    /// Notch filter at `f0` with quality factor `q` (e.g. 50/60 Hz mains).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] unless `0 < f0 < fs/2` and
    /// `q > 0`.
    pub fn notch(f0: f64, q: f64, fs: f64) -> Result<Self, DspError> {
        check_fc(f0, fs)?;
        if q <= 0.0 {
            return Err(DspError::InvalidParameter {
                name: "q",
                reason: "must be positive",
            });
        }
        let w0 = 2.0 * PI * f0 / fs;
        let alpha = w0.sin() / (2.0 * q);
        let cw = w0.cos();
        let a0 = 1.0 + alpha;
        Ok(Biquad {
            b: [1.0 / a0, -2.0 * cw / a0, 1.0 / a0],
            a: [-2.0 * cw / a0, (1.0 - alpha) / a0],
        })
    }

    /// Filters `x`, returning a new vector (direct form I, zero initial
    /// state).
    pub fn filter(&self, x: &[f64]) -> Vec<f64> {
        let mut y = Vec::with_capacity(x.len());
        let (mut x1, mut x2, mut y1, mut y2) = (0.0, 0.0, 0.0, 0.0);
        for &xi in x {
            let yi =
                self.b[0] * xi + self.b[1] * x1 + self.b[2] * x2 - self.a[0] * y1 - self.a[1] * y2;
            x2 = x1;
            x1 = xi;
            y2 = y1;
            y1 = yi;
            y.push(yi);
        }
        y
    }

    /// In-place twin of [`Biquad::filter`]: identical recurrence and
    /// rounding, so outputs are bit-identical — the streaming front end
    /// uses it to run whole cascades without per-call allocation.
    pub fn filter_in_place(&self, x: &mut [f64]) {
        let (mut x1, mut x2, mut y1, mut y2) = (0.0, 0.0, 0.0, 0.0);
        for slot in x.iter_mut() {
            let xi = *slot;
            let yi =
                self.b[0] * xi + self.b[1] * x1 + self.b[2] * x2 - self.a[0] * y1 - self.a[1] * y2;
            x2 = x1;
            x1 = xi;
            y2 = y1;
            y1 = yi;
            *slot = yi;
        }
    }

    /// Magnitude response at frequency `f` (Hz) for sampling rate `fs`.
    pub fn magnitude_at(&self, f: f64, fs: f64) -> f64 {
        let w = 2.0 * PI * f / fs;
        let z1 = crate::fft::Complex::from_polar(1.0, -w);
        let z2 = z1 * z1;
        let num = crate::fft::Complex::from(self.b[0]) + z1.scale(self.b[1]) + z2.scale(self.b[2]);
        let den = crate::fft::Complex::ONE + z1.scale(self.a[0]) + z2.scale(self.a[1]);
        num.norm() / den.norm()
    }
}

fn check_fc(fc: f64, fs: f64) -> Result<(), DspError> {
    if fs <= 0.0 {
        return Err(DspError::InvalidParameter {
            name: "fs",
            reason: "must be positive",
        });
    }
    if fc <= 0.0 || fc >= fs / 2.0 {
        return Err(DspError::InvalidParameter {
            name: "fc",
            reason: "must satisfy 0 < fc < fs/2",
        });
    }
    Ok(())
}

/// A cascade of biquad sections applied in sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SosCascade {
    sections: Vec<Biquad>,
}

/// Reusable work buffer for [`SosCascade::filtfilt_into`].
#[derive(Debug, Clone, Default)]
pub struct FiltFiltScratch {
    /// Padded signal extension, filtered in place both directions.
    ext: Vec<f64>,
}

impl FiltFiltScratch {
    /// Heap bytes held by the work buffer (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.ext)
    }
}

/// Heap bytes a `Vec` holds: its capacity, not its length.
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

impl SosCascade {
    /// Creates a cascade from sections.
    pub fn new(sections: Vec<Biquad>) -> Self {
        SosCascade { sections }
    }

    /// Butterworth band-pass built as `n_sections` high-pass at `lo`
    /// followed by `n_sections` low-pass at `hi` (the structure used by the
    /// Pan–Tompkins front end).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] for inverted or out-of-range
    /// corner frequencies.
    pub fn butterworth_bandpass(
        lo: f64,
        hi: f64,
        fs: f64,
        n_sections: usize,
    ) -> Result<Self, DspError> {
        if lo >= hi {
            return Err(DspError::InvalidParameter {
                name: "lo/hi",
                reason: "low corner must be below high corner",
            });
        }
        let mut sections = Vec::with_capacity(2 * n_sections);
        for _ in 0..n_sections {
            sections.push(Biquad::butterworth_highpass(lo, fs)?);
            sections.push(Biquad::butterworth_lowpass(hi, fs)?);
        }
        Ok(SosCascade { sections })
    }

    /// Number of biquad sections.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// The biquad sections, in application order.
    pub fn sections(&self) -> &[Biquad] {
        &self.sections
    }

    /// Copies the section coefficients into a fused-kernel array at
    /// precision `T` (first `self.len()` entries are meaningful).
    fn fused_sections<T: kernels::Scalar>(&self) -> [SosSection<T>; kernels::MAX_CHAIN_SECTIONS] {
        let mut secs = [SosSection::<T>::default(); kernels::MAX_CHAIN_SECTIONS];
        for (dst, s) in secs.iter_mut().zip(self.sections.iter()) {
            *dst = SosSection::from_f64(s.b, s.a);
        }
        secs
    }

    /// Whether the cascade has no sections (identity).
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Applies all sections in sequence.
    pub fn filter(&self, x: &[f64]) -> Vec<f64> {
        let mut y = x.to_vec();
        self.filter_in_place(&mut y);
        y
    }

    /// Applies all sections in sequence, in place (bit-identical to
    /// [`SosCascade::filter`]).
    ///
    /// Runs the cascade-fused register chain
    /// ([`kernels::sos_chain_in_place`]): one sweep over `x` with every
    /// section chained per sample, bit-identical to the per-section
    /// sweeps of [`SosCascade::filter_in_place_reference`] (cascades
    /// longer than [`kernels::MAX_CHAIN_SECTIONS`] fall back to them).
    pub fn filter_in_place(&self, x: &mut [f64]) {
        if self.sections.len() > kernels::MAX_CHAIN_SECTIONS {
            self.filter_in_place_reference(x);
            return;
        }
        let secs = self.fused_sections::<f64>();
        kernels::sos_chain_in_place(&secs[..self.sections.len()], x);
    }

    /// Pre-fusion reference: one whole-buffer sweep per section. Kept as
    /// the bit-identity reference for the fused chain (see the
    /// `dsp_kernel_equivalence` suite) and as the fallback for cascades
    /// longer than [`kernels::MAX_CHAIN_SECTIONS`].
    pub fn filter_in_place_reference(&self, x: &mut [f64]) {
        for s in &self.sections {
            s.filter_in_place(x);
        }
    }

    /// Zero-phase forward–backward filtering with odd reflection padding at
    /// both ends (pad length `3 * sections * 2` samples, clipped to the
    /// signal length).
    pub fn filtfilt(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.filtfilt_into(x, &mut FiltFiltScratch::default(), &mut out);
        out
    }

    /// Scratch-reusing twin of [`SosCascade::filtfilt`]: clears and fills
    /// `out`, keeping the padded work buffer in `scratch` so repeated
    /// calls (the streaming hot loop) allocate nothing after warm-up.
    /// Bit-identical to [`SosCascade::filtfilt`].
    ///
    /// Runs the cascade-fused chain ([`kernels::filtfilt_fused`]): one
    /// register-chained sweep per direction, the backward pass iterating
    /// in reverse instead of flipping the buffer twice. Bit-identical to
    /// the per-section sweeps of [`SosCascade::filtfilt_into_reference`]
    /// (which longer-than-[`kernels::MAX_CHAIN_SECTIONS`] cascades fall
    /// back to).
    pub fn filtfilt_into(&self, x: &[f64], scratch: &mut FiltFiltScratch, out: &mut Vec<f64>) {
        if self.sections.len() > kernels::MAX_CHAIN_SECTIONS {
            self.filtfilt_into_reference(x, scratch, out);
            return;
        }
        let secs = self.fused_sections::<f64>();
        kernels::filtfilt_fused(&secs[..self.sections.len()], x, &mut scratch.ext, out);
    }

    /// Pre-fusion reference for [`SosCascade::filtfilt_into`]: builds the
    /// same odd-reflection extension, then sweeps per section in each
    /// direction with two physical buffer reversals. Kept for the
    /// equivalence suite and the legacy bench rows.
    pub fn filtfilt_into_reference(
        &self,
        x: &[f64],
        scratch: &mut FiltFiltScratch,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        if x.is_empty() || self.sections.is_empty() {
            out.extend_from_slice(x);
            return;
        }
        let pad = (6 * self.sections.len()).min(x.len() - 1).max(1);
        // Odd reflection: 2*x[0] - x[pad..1], signal, 2*x[n-1] - x[n-2..]
        let ext = &mut scratch.ext;
        ext.clear();
        ext.reserve(x.len() + 2 * pad);
        for i in (1..=pad).rev() {
            ext.push(2.0 * x[0] - x[i.min(x.len() - 1)]);
        }
        ext.extend_from_slice(x);
        let n = x.len();
        for i in 1..=pad {
            let idx = n.saturating_sub(1 + i.min(n - 1));
            ext.push(2.0 * x[n - 1] - x[idx]);
        }
        self.filter_in_place_reference(ext); // forward pass
        ext.reverse();
        self.filter_in_place_reference(ext); // backward pass
        ext.reverse();
        out.extend_from_slice(&ext[pad..pad + n]);
    }

    /// Magnitude response of the whole cascade at `f` Hz.
    pub fn magnitude_at(&self, f: f64, fs: f64) -> f64 {
        self.sections
            .iter()
            .map(|s| s.magnitude_at(f, fs))
            .product()
    }
}

/// Causal moving-average FIR of length `len`.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] when `len == 0`.
pub fn moving_average(x: &[f64], len: usize) -> Result<Vec<f64>, DspError> {
    let mut out = Vec::new();
    moving_average_into(x, len, &mut out)?;
    Ok(out)
}

/// Scratch-reusing twin of [`moving_average`]: clears and refills `out`.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] when `len == 0`.
pub fn moving_average_into(x: &[f64], len: usize, out: &mut Vec<f64>) -> Result<(), DspError> {
    if len == 0 {
        return Err(DspError::InvalidParameter {
            name: "len",
            reason: "must be >= 1",
        });
    }
    out.clear();
    out.reserve(x.len());
    let mut acc = 0.0;
    for (i, &xi) in x.iter().enumerate() {
        acc += xi;
        if i >= len {
            acc -= x[i - len];
        }
        let effective = (i + 1).min(len);
        // lint: allow(float-det) — exact integer→float cast (effective <= len).
        out.push(acc / effective as f64);
    }
    Ok(())
}

/// Five-point derivative used by Pan–Tompkins:
/// `y[n] = (2x[n] + x[n-1] - x[n-3] - 2x[n-4]) / 8` (scaled by `fs`).
pub fn five_point_derivative(x: &[f64], fs: f64) -> Vec<f64> {
    let mut out = Vec::new();
    five_point_derivative_into(x, fs, &mut out);
    out
}

/// Scratch-reusing twin of [`five_point_derivative`]: clears and refills
/// `out`.
pub fn five_point_derivative_into(x: &[f64], fs: f64, out: &mut Vec<f64>) {
    let n = x.len();
    let g = |i: isize| -> f64 {
        if i < 0 {
            x.first().copied().unwrap_or(0.0)
        } else {
            x[(i as usize).min(n - 1)]
        }
    };
    out.clear();
    out.reserve(n);
    out.extend(
        (0..n as isize).map(|i| (2.0 * g(i) + g(i - 1) - g(i - 3) - 2.0 * g(i - 4)) * fs / 8.0),
    );
}

/// Sliding median filter with odd window `len` (edges use shrunken windows).
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] when `len` is even or zero.
pub fn median_filter(x: &[f64], len: usize) -> Result<Vec<f64>, DspError> {
    if len == 0 || len.is_multiple_of(2) {
        return Err(DspError::InvalidParameter {
            name: "len",
            reason: "must be odd and >= 1",
        });
    }
    let half = len / 2;
    let n = x.len();
    let mut out = Vec::with_capacity(n);
    // One reused window buffer; `total_cmp`-equal values are bit-identical,
    // so the unstable sort selects exactly the element the stable sort
    // would.
    let mut w: Vec<f64> = Vec::with_capacity(len);
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        w.clear();
        w.extend_from_slice(&x[lo..hi]);
        w.sort_unstable_by(|a, b| a.total_cmp(b));
        out.push(w[w.len() / 2]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(fs: f64, f: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * PI * f * i as f64 / fs).sin())
            .collect()
    }

    fn rms_tail(x: &[f64]) -> f64 {
        let tail = &x[x.len() / 2..];
        crate::stats::rms(tail)
    }

    #[test]
    fn lowpass_passes_low_blocks_high() {
        let fs = 256.0;
        let lp = Biquad::butterworth_lowpass(10.0, fs).unwrap();
        let low = lp.filter(&tone(fs, 2.0, 2048));
        let high = lp.filter(&tone(fs, 80.0, 2048));
        assert!(rms_tail(&low) > 0.6);
        assert!(rms_tail(&high) < 0.05);
    }

    #[test]
    fn highpass_blocks_dc() {
        let fs = 128.0;
        let hp = Biquad::butterworth_highpass(5.0, fs).unwrap();
        let dc = hp.filter(&vec![1.0; 1024]);
        assert!(rms_tail(&dc) < 1e-3);
        let fast = hp.filter(&tone(fs, 30.0, 1024));
        assert!(rms_tail(&fast) > 0.6);
    }

    #[test]
    fn bandpass_magnitude_response() {
        let fs = 200.0;
        let bp = SosCascade::butterworth_bandpass(5.0, 15.0, fs, 1).unwrap();
        let centre = bp.magnitude_at(9.0, fs);
        let below = bp.magnitude_at(0.5, fs);
        let above = bp.magnitude_at(60.0, fs);
        assert!(centre > 0.7, "centre {centre}");
        assert!(below < 0.1, "below {below}");
        assert!(above < 0.1, "above {above}");
    }

    #[test]
    fn notch_kills_mains() {
        let fs = 256.0;
        let nf = Biquad::notch(50.0, 10.0, fs).unwrap();
        assert!(nf.magnitude_at(50.0, fs) < 0.02);
        assert!(nf.magnitude_at(10.0, fs) > 0.95);
        assert!(nf.magnitude_at(100.0, fs) > 0.9);
    }

    #[test]
    fn design_validates_corners() {
        assert!(Biquad::butterworth_lowpass(0.0, 100.0).is_err());
        assert!(Biquad::butterworth_lowpass(60.0, 100.0).is_err());
        assert!(Biquad::butterworth_highpass(-1.0, 100.0).is_err());
        assert!(Biquad::bandpass(10.0, 0.0, 100.0).is_err());
        assert!(SosCascade::butterworth_bandpass(15.0, 5.0, 100.0, 1).is_err());
        assert!(Biquad::butterworth_lowpass(10.0, 0.0).is_err());
    }

    #[test]
    fn filtfilt_has_zero_phase() {
        // A zero-phase filter keeps a slow tone aligned with itself.
        let fs = 100.0;
        let sig = tone(fs, 1.0, 600);
        let cascade = SosCascade::new(vec![Biquad::butterworth_lowpass(5.0, fs).unwrap()]);
        let out = cascade.filtfilt(&sig);
        assert_eq!(out.len(), sig.len());
        // Cross-correlation at zero lag should be near 1 (no delay).
        let num: f64 = sig.iter().zip(&out).map(|(a, b)| a * b).sum();
        let den = (sig.iter().map(|v| v * v).sum::<f64>() * out.iter().map(|v| v * v).sum::<f64>())
            .sqrt();
        assert!(num / den > 0.99, "corr {}", num / den);
    }

    #[test]
    fn filtfilt_identity_on_empty_cascade() {
        let sig = vec![1.0, 2.0, 3.0];
        let c = SosCascade::default();
        assert!(c.is_empty());
        assert_eq!(c.filtfilt(&sig), sig);
        assert_eq!(c.filter(&sig), sig);
    }

    #[test]
    fn moving_average_smooths() {
        let x = [0.0, 0.0, 3.0, 0.0, 0.0, 0.0];
        let y = moving_average(&x, 3).unwrap();
        assert!((y[2] - 1.0).abs() < 1e-12);
        assert!((y[3] - 1.0).abs() < 1e-12);
        assert!((y[4] - 1.0).abs() < 1e-12);
        assert!((y[5] - 0.0).abs() < 1e-12);
        assert!(moving_average(&x, 0).is_err());
    }

    #[test]
    fn moving_average_warmup_uses_effective_length() {
        let y = moving_average(&[2.0, 4.0], 4).unwrap();
        assert_eq!(y, vec![2.0, 3.0]);
    }

    #[test]
    fn derivative_of_ramp_is_constant() {
        let fs = 10.0;
        let ramp: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let d = five_point_derivative(&ramp, fs);
        // The classic Pan–Tompkins kernel has a pass-band gain of 1.25, so
        // a slope-1 ramp at fs=10 yields 12.5 on interior samples.
        for &v in &d[6..44] {
            assert!((v - 12.5).abs() < 1e-9, "{v}");
        }
    }

    #[test]
    fn median_filter_removes_spikes() {
        let mut x = vec![1.0; 20];
        x[10] = 100.0;
        let y = median_filter(&x, 5).unwrap();
        assert!((y[10] - 1.0).abs() < 1e-12);
        assert!(median_filter(&x, 4).is_err());
        assert!(median_filter(&x, 0).is_err());
    }

    #[test]
    fn in_place_and_into_variants_are_bit_identical() {
        let fs = 128.0;
        let sig: Vec<f64> = (0..512)
            .map(|i| (2.0 * PI * 7.0 * i as f64 / fs).sin() + 0.1 * (i as f64 * 0.7).cos())
            .collect();
        let cascade = SosCascade::butterworth_bandpass(5.0, 15.0, fs, 1).unwrap();

        let mut in_place = sig.clone();
        cascade.filter_in_place(&mut in_place);
        for (a, b) in cascade.filter(&sig).iter().zip(in_place.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let mut scratch = FiltFiltScratch::default();
        let mut out = Vec::new();
        // Reuse the scratch twice: the second pass must still match.
        for _ in 0..2 {
            cascade.filtfilt_into(&sig, &mut scratch, &mut out);
            let reference = cascade.filtfilt(&sig);
            assert_eq!(out.len(), reference.len());
            for (a, b) in reference.iter().zip(out.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        let mut ma = Vec::new();
        moving_average_into(&sig, 19, &mut ma).unwrap();
        assert_eq!(ma, moving_average(&sig, 19).unwrap());
        let mut d = Vec::new();
        five_point_derivative_into(&sig, fs, &mut d);
        assert_eq!(d, five_point_derivative(&sig, fs));
    }

    #[test]
    fn fused_paths_match_reference_sweeps_bitwise() {
        let fs = 128.0;
        let sig: Vec<f64> = (0..611)
            .map(|i| (2.0 * PI * 6.0 * i as f64 / fs).sin() + 0.2 * (i as f64 * 1.3).cos())
            .collect();
        for n_sections in 1..=3usize {
            let cascade = SosCascade::butterworth_bandpass(5.0, 15.0, fs, n_sections).unwrap();
            let mut fused = sig.clone();
            cascade.filter_in_place(&mut fused);
            let mut swept = sig.clone();
            cascade.filter_in_place_reference(&mut swept);
            for (a, b) in fused.iter().zip(swept.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{n_sections} sections");
            }
            let mut scratch = FiltFiltScratch::default();
            let (mut ff, mut ff_ref) = (Vec::new(), Vec::new());
            cascade.filtfilt_into(&sig, &mut scratch, &mut ff);
            cascade.filtfilt_into_reference(&sig, &mut scratch, &mut ff_ref);
            assert_eq!(ff.len(), ff_ref.len());
            for (a, b) in ff.iter().zip(ff_ref.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{n_sections} sections");
            }
        }
    }

    #[test]
    fn identity_biquad_passes_through() {
        let x = [1.0, -2.0, 3.5];
        assert_eq!(Biquad::identity().filter(&x), x.to_vec());
    }
}
