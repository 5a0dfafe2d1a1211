//! Input generation: the ECG pool every patient streams from, the
//! injected artefacts, the pre-extracted row pool, and the seeded plan
//! that turns them into fleet operations.
//!
//! All ECG is synthesised and every random draw is made here, before any
//! timer starts; the measured loops only index into what this module
//! built.

use crate::workload::{Kind, Workload, FS, SECOND, WINDOW_LEN, WINDOW_S};
use ecg_features::extract::{ExtractScratch, WindowExtractor};
use ecg_sim::dataset::{DatasetSpec, Scale};
use seizure_core::alarm::TruthEvent;
use simrand::rngs::StdRng;
use simrand::seq::SliceRandom;
use simrand::{Rng, SeedableRng};

/// Cohort seed of the serving pool. It differs from the training cohort's
/// seed, so the fleet classifies patients the model has never seen.
pub const POOL_COHORT_SEED: u64 = 7;
/// Sessions of the Lite cohort rendered into the pool (all of them).
pub const POOL_SESSIONS: usize = 24;
/// Leading windows of each session kept in the pool.
pub const POOL_WINDOWS_PER_SESSION: usize = 10;
// The `raw_adverse` traffic mix below is a stress setting derived from
// what the workload has to exercise, not a measured traffic profile; the
// README derives each value.
/// Share of pool windows `raw_adverse` corrupts: 48 of the 240 pool
/// windows, so each of the four artefact kinds hits 12 windows.
pub const ADVERSE_SHARE: f64 = 0.2;
/// Seed of the artefact placement. It is fixed, not the workload seed:
/// which seizures lose a window to an artefact would otherwise move the
/// event metrics from seed to seed by more than any fleet change does.
pub const ARTEFACT_SEED: u64 = 0xA47E;
/// `raw_live` chunks each patient sends per saturation burst.
pub const LIVE_CHUNKS_PER_BURST: usize = 16;
/// `raw_adverse` patients that bulk-sync one chunk per burst: every
/// patient syncs once in 16 bursts, and a burst carries about 64 windows.
pub const ADVERSE_SYNCS_PER_BURST: usize = 16;
/// `raw_adverse` bulk chunk length bounds, in windows: enough for 2- and
/// 4-lane groups and a scalar remainder, with a partial window at the end.
pub const ADVERSE_CHUNK_WINDOWS: (usize, usize) = (2, 6);
/// `raw_adverse` churns patients every this many bursts.
pub const CHURN_EVERY: usize = 4;

/// Uniform integer in `0..n` (`n > 0`), by multiply-shift.
fn below(rng: &mut StdRng, n: usize) -> usize {
    ((u128::from(rng.next_u64()) * n as u128) >> 64) as usize
}

/// `f` over `items`, in order, with the second half on a second thread.
pub fn map_on_two_threads<S: Sync, T: Send>(items: &[S], f: impl Fn(&S) -> T + Sync) -> Vec<T> {
    let (first, second) = items.split_at(items.len() / 2);
    std::thread::scope(|s| {
        let rest = s.spawn(|| second.iter().map(&f).collect::<Vec<T>>());
        let mut out: Vec<T> = first.iter().map(&f).collect();
        out.extend(rest.join().expect("synthesis thread panicked"));
        out
    })
}

/// Windows of synthetic ECG laid back to back, with the seizures they
/// contain in pool time.
#[derive(Debug, Clone, PartialEq)]
pub struct Pool {
    /// `windows × WINDOW_LEN` samples.
    pub samples: Vec<f64>,
    /// Window count.
    pub windows: usize,
    /// Seizures in pool seconds, sorted by onset.
    pub events: Vec<TruthEvent>,
}

impl Pool {
    /// Renders the first `windows_per_session` windows of the first
    /// `sessions` sessions of the pool cohort, on up to two threads.
    pub fn synthesize(sessions: usize, windows_per_session: usize) -> Pool {
        let spec = DatasetSpec::new(Scale::Lite, POOL_COHORT_SEED);
        let specs = &spec.sessions[..sessions.min(spec.sessions.len())];
        let keep = windows_per_session * WINDOW_LEN;
        let span_s = windows_per_session as f64 * WINDOW_S;
        let rendered = map_on_two_threads(specs, |s| {
            let rec = s.synthesize();
            assert!(rec.ecg.len() >= keep, "session shorter than the pool slice");
            let events: Vec<TruthEvent> = seizure_core::alarm::truth_events(&rec.seizures)
                .into_iter()
                .filter(|e| e.onset_s < span_s)
                .map(|e| TruthEvent {
                    onset_s: e.onset_s,
                    offset_s: e.offset_s.min(span_s),
                })
                .collect();
            (rec.ecg[..keep].to_vec(), events)
        });
        let mut samples = Vec::with_capacity(specs.len() * keep);
        let mut events = Vec::new();
        for (i, (ecg, evs)) in rendered.into_iter().enumerate() {
            let base = i as f64 * span_s;
            samples.extend_from_slice(&ecg);
            events.extend(evs.into_iter().map(|e| TruthEvent {
                onset_s: e.onset_s + base,
                offset_s: e.offset_s + base,
            }));
        }
        Pool {
            samples,
            windows: specs.len() * windows_per_session,
            events,
        }
    }

    /// Samples of pool window `w`.
    pub fn window(&self, w: usize) -> &[f64] {
        &self.samples[w * WINDOW_LEN..(w + 1) * WINDOW_LEN]
    }

    /// Corrupts exactly `round(share × windows)` windows drawn with
    /// `seed`, cycling through the four artefacts a wearable produces:
    /// lead-off flatline, a NaN burst, hard clipping and 1e6 spikes.
    pub fn inject_artefacts(&mut self, seed: u64, share: f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..self.windows).collect();
        order.shuffle(&mut rng);
        order.truncate((share * self.windows as f64).round() as usize);
        for (k, &w) in order.iter().enumerate() {
            let x = &mut self.samples[w * WINDOW_LEN..(w + 1) * WINDOW_LEN];
            match k % 4 {
                // Lead-off: the electrode reads a constant for the window.
                0 => x.fill(0.0),
                // Non-finite burst of 1–4 s.
                1 => {
                    let len = SECOND * (1 + below(&mut rng, 4));
                    let at = below(&mut rng, WINDOW_LEN - len);
                    x[at..at + len].fill(f64::NAN);
                }
                // Clipping at 5–15 % of the window's peak amplitude.
                2 => {
                    let peak = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                    let level = peak * (0.05 + 0.1 * below(&mut rng, 1_000) as f64 / 1_000.0);
                    for v in x.iter_mut() {
                        *v = v.clamp(-level, level);
                    }
                }
                // Twenty saturating spikes.
                _ => {
                    for _ in 0..20 {
                        let at = below(&mut rng, WINDOW_LEN);
                        x[at] = if below(&mut rng, 2) == 0 { 1e6 } else { -1e6 };
                    }
                }
            }
        }
    }

    /// Pre-extracted feature row of every pool window (`None` where
    /// extraction drops the window), as a wearable would send them.
    pub fn rows(&self) -> Vec<Option<Vec<f64>>> {
        let extractor = WindowExtractor::new(FS);
        let mut scratch = ExtractScratch::default();
        let mut row = Vec::new();
        (0..self.windows)
            .map(|w| {
                extractor
                    .extract_into(self.window(w), &mut scratch, &mut row)
                    .ok()
                    .map(|()| row.clone())
            })
            .collect()
    }
}

/// One fleet operation. Samples are addressed into the pool, rows by pool
/// window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `ingest(patient, pool.samples[start..start + len])`.
    Chunk { patient: u32, start: u32, len: u32 },
    /// `ingest_row(patient, rows[window])`.
    Row { patient: u32, window: u32 },
    /// `admit(patient)`; its stream starts at pool window `start_window`.
    Admit { patient: u32, start_window: u32 },
    /// `remove(patient)`.
    Remove { patient: u32 },
    /// `restart(patient)`; the new stream starts at `start_window`.
    Restart { patient: u32, start_window: u32 },
}

impl Op {
    /// Offered load of the operation in samples (a row stands for one
    /// window of samples); it sets the op's due time in the paced phase.
    pub fn cost_samples(&self) -> u64 {
        match *self {
            Op::Chunk { len, .. } => u64::from(len),
            Op::Row { .. } => WINDOW_LEN as u64,
            _ => 0,
        }
    }
}

/// One patient's current stream: where in the pool it began and how much
/// of it has been sent.
#[derive(Debug, Clone, Copy)]
struct Stream {
    start_window: u32,
    /// Samples (raw) or rows (row-fed) sent since the stream began.
    fed: u64,
    live: bool,
}

/// The seeded operation schedule of one workload.
#[derive(Debug, Clone)]
pub struct Plan {
    kind: Kind,
    pool_windows: usize,
    streams: Vec<Stream>,
    rng: StdRng,
    /// Sync order of `raw_adverse` (a seeded permutation, cycled).
    order: Vec<u32>,
    cursor: usize,
    /// Patient removed at the previous churn round, re-admitted at the next.
    away: Option<u32>,
    bursts: usize,
}

impl Plan {
    /// A fresh plan: every patient admitted. Stream starts are spread
    /// evenly over the pool from a seeded offset and dealt to patients in
    /// seeded order, so every stretch of the pool is watched equally
    /// often whatever the seed.
    pub fn new(w: &Workload, seed: u64, pool_windows: usize) -> Plan {
        let mut rng = StdRng::seed_from_u64(seed);
        let offset = below(&mut rng, pool_windows);
        let mut starts: Vec<u32> = (0..w.patients)
            .map(|p| ((offset + p * pool_windows / w.patients) % pool_windows) as u32)
            .collect();
        starts.shuffle(&mut rng);
        let streams = starts
            .into_iter()
            .map(|start_window| Stream {
                start_window,
                fed: 0,
                live: true,
            })
            .collect();
        let mut order: Vec<u32> = (0..w.patients as u32).collect();
        order.shuffle(&mut rng);
        Plan {
            kind: w.kind,
            pool_windows,
            streams,
            rng,
            order,
            cursor: 0,
            away: None,
            bursts: 0,
        }
    }

    /// Patients admitted at set-up, with the pool window each stream
    /// starts at.
    pub fn initial_streams(&self) -> Vec<(u32, u32)> {
        self.streams
            .iter()
            .enumerate()
            .map(|(p, s)| (p as u32, s.start_window))
            .collect()
    }

    /// Untimed warm-up operations. `raw_live` pre-feeds patient `p` with
    /// `p × 180 / N` one-second chunks, so windows complete staggered —
    /// one patient at a time — instead of all in the same burst.
    pub fn warmup(&mut self, out: &mut Vec<Op>) {
        if self.kind != Kind::RawLive {
            return;
        }
        let n = self.streams.len();
        let per_window = WINDOW_LEN / SECOND;
        for p in 0..n {
            for _ in 0..p * per_window / n {
                self.chunk(p as u32, SECOND, out);
            }
        }
    }

    /// Samples or rows sent on `patient`'s current stream.
    pub fn fed(&self, patient: u32) -> u64 {
        self.streams[patient as usize].fed
    }

    /// Appends the operations of the next burst.
    pub fn next_burst(&mut self, out: &mut Vec<Op>) {
        let n = self.streams.len() as u32;
        match self.kind {
            Kind::RawLive => {
                for _ in 0..LIVE_CHUNKS_PER_BURST {
                    for p in 0..n {
                        self.chunk(p, SECOND, out);
                    }
                }
            }
            Kind::RowsFanin => {
                for p in 0..n {
                    let s = &mut self.streams[p as usize];
                    let window =
                        ((u64::from(s.start_window) + s.fed) % self.pool_windows as u64) as u32;
                    s.fed += 1;
                    out.push(Op::Row { patient: p, window });
                }
            }
            Kind::RawAdverse => {
                if self.bursts > 0 && self.bursts.is_multiple_of(CHURN_EVERY) {
                    self.churn(out);
                }
                let mut synced = 0;
                while synced < ADVERSE_SYNCS_PER_BURST {
                    let p = self.order[self.cursor];
                    self.cursor = (self.cursor + 1) % self.order.len();
                    if !self.streams[p as usize].live {
                        continue;
                    }
                    let (lo, hi) = ADVERSE_CHUNK_WINDOWS;
                    let len = lo * WINDOW_LEN + below(&mut self.rng, (hi - lo) * WINDOW_LEN + 1);
                    self.chunk(p, len, out);
                    synced += 1;
                }
            }
        }
        self.bursts += 1;
    }

    /// Operations of the paced phase: whole bursts until at least
    /// `windows` windows' worth of samples are offered.
    pub fn paced_ops(&mut self, windows: f64) -> Vec<Op> {
        let target = (windows * WINDOW_LEN as f64) as u64;
        let mut ops = Vec::new();
        let mut offered = 0u64;
        while offered < target {
            let from = ops.len();
            self.next_burst(&mut ops);
            offered += ops[from..].iter().map(Op::cost_samples).sum::<u64>();
        }
        ops
    }

    /// A `raw_adverse` churn round: two restarts, one removal, and the
    /// re-admission of the patient removed at the previous round.
    fn churn(&mut self, out: &mut Vec<Op>) {
        for _ in 0..2 {
            let p = self.random_live();
            let start_window = self.fresh_stream(p);
            out.push(Op::Restart {
                patient: p,
                start_window,
            });
        }
        let gone = self.random_live();
        self.streams[gone as usize].live = false;
        out.push(Op::Remove { patient: gone });
        if let Some(p) = self.away.replace(gone) {
            let start_window = self.fresh_stream(p);
            out.push(Op::Admit {
                patient: p,
                start_window,
            });
        }
    }

    fn random_live(&mut self) -> u32 {
        loop {
            let p = below(&mut self.rng, self.streams.len());
            if self.streams[p].live {
                return p as u32;
            }
        }
    }

    fn fresh_stream(&mut self, p: u32) -> u32 {
        let start_window = below(&mut self.rng, self.pool_windows) as u32;
        self.streams[p as usize] = Stream {
            start_window,
            fed: 0,
            live: true,
        };
        start_window
    }

    /// `len` samples of `p`'s stream, split where the pool wraps.
    fn chunk(&mut self, p: u32, len: usize, out: &mut Vec<Op>) {
        let pool_len = (self.pool_windows * WINDOW_LEN) as u64;
        let s = &mut self.streams[p as usize];
        let mut left = len as u64;
        while left > 0 {
            let pos = (u64::from(s.start_window) * WINDOW_LEN as u64 + s.fed) % pool_len;
            let take = left.min(pool_len - pos);
            out.push(Op::Chunk {
                patient: p,
                start: pos as u32,
                len: take as u32,
            });
            s.fed += take;
            left -= take;
        }
    }
}

/// Maps pool seizures onto a stream that starts at pool window
/// `start_window` and has covered `windows` windows, cycling through the
/// pool. Events are clipped to the stream.
pub fn stream_truth(
    pool_events: &[TruthEvent],
    pool_windows: usize,
    start_window: u32,
    windows: u64,
) -> Vec<TruthEvent> {
    let pool_s = pool_windows as f64 * WINDOW_S;
    let mut left_s = windows as f64 * WINDOW_S;
    let mut from_s = f64::from(start_window) * WINDOW_S;
    let mut stream_s = 0.0;
    let mut out = Vec::new();
    while left_s > 0.0 {
        let to_s = pool_s.min(from_s + left_s);
        for e in pool_events {
            if e.onset_s >= from_s && e.onset_s < to_s {
                out.push(TruthEvent {
                    onset_s: e.onset_s - from_s + stream_s,
                    offset_s: e.offset_s.min(to_s) - from_s + stream_s,
                });
            }
        }
        left_s -= to_s - from_s;
        stream_s += to_s - from_s;
        from_s = 0.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// FNV-1a digest of the pool, the row pool and the first `bursts` bursts
    /// of the plan (warm-up included) — what "same seed, same inputs" pins.
    fn digest(pool: &Pool, rows: &[Option<Vec<f64>>], plan: &mut Plan, bursts: usize) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01B3);
            }
        };
        pool.samples.iter().for_each(|x| eat(x.to_bits()));
        for e in &pool.events {
            eat(e.onset_s.to_bits());
            eat(e.offset_s.to_bits());
        }
        for r in rows {
            match r {
                Some(r) => r.iter().for_each(|x| eat(x.to_bits())),
                None => eat(u64::MAX),
            }
        }
        let mut ops = Vec::new();
        plan.initial_streams()
            .iter()
            .for_each(|&(p, s)| eat(u64::from(p) << 32 | u64::from(s)));
        plan.warmup(&mut ops);
        for _ in 0..bursts {
            plan.next_burst(&mut ops);
        }
        for op in &ops {
            let (tag, a, b, c) = match *op {
                Op::Chunk {
                    patient,
                    start,
                    len,
                } => (0, patient, start, len),
                Op::Row { patient, window } => (1, patient, window, 0),
                Op::Admit {
                    patient,
                    start_window,
                } => (2, patient, start_window, 0),
                Op::Remove { patient } => (3, patient, 0, 0),
                Op::Restart {
                    patient,
                    start_window,
                } => (4, patient, start_window, 0),
            };
            eat(tag);
            eat(u64::from(a) << 32 | u64::from(b));
            eat(u64::from(c));
        }
        h
    }

    fn small_inputs(w: &Workload, seed: u64) -> (Pool, Vec<Option<Vec<f64>>>, Plan) {
        let mut pool = Pool::synthesize(2, 4);
        if w.kind == Kind::RawAdverse {
            pool.inject_artefacts(ARTEFACT_SEED, ADVERSE_SHARE);
        }
        let rows = pool.rows();
        let plan = Plan::new(w, seed, pool.windows);
        (pool, rows, plan)
    }

    #[test]
    fn same_seed_gives_identical_inputs_and_schedule() {
        for w in &WORKLOADS {
            let (pool_a, rows_a, mut plan_a) = small_inputs(w, 11);
            let (pool_b, rows_b, mut plan_b) = small_inputs(w, 11);
            assert_eq!(
                digest(&pool_a, &rows_a, &mut plan_a, 12),
                digest(&pool_b, &rows_b, &mut plan_b, 12),
                "{}",
                w.name
            );
            assert_eq!(plan_a.paced_ops(50.0), plan_b.paced_ops(50.0), "{}", w.name);
            let (pool_c, rows_c, mut plan_c) = small_inputs(w, 12);
            let (_, _, mut plan_a2) = small_inputs(w, 11);
            assert_ne!(
                digest(&pool_a, &rows_a, &mut plan_a2, 12),
                digest(&pool_c, &rows_c, &mut plan_c, 12),
                "{}: another seed must give other inputs",
                w.name
            );
        }
    }

    #[test]
    fn chunks_never_cross_the_pool_end() {
        let w = &WORKLOADS[2];
        let mut plan = Plan::new(w, 3, 8);
        let mut ops = Vec::new();
        for _ in 0..40 {
            plan.next_burst(&mut ops);
        }
        let pool_len = 8 * WINDOW_LEN as u32;
        assert!(ops.iter().any(|op| matches!(op, Op::Restart { .. })));
        for op in ops {
            if let Op::Chunk { start, len, .. } = op {
                assert!(len > 0 && start + len <= pool_len);
            }
        }
    }

    #[test]
    fn stream_truth_wraps_and_clips() {
        let events = [
            TruthEvent {
                onset_s: 100.0,
                offset_s: 220.0,
            },
            TruthEvent {
                onset_s: 500.0,
                offset_s: 600.0,
            },
        ];
        // Pool of 4 windows (720 s); a stream from window 2 over 4 windows
        // sees the second event at 500 − 360 = 140 s, then wraps and sees
        // the first at 360 + 100 = 460 s.
        let t = stream_truth(&events, 4, 2, 4);
        assert_eq!(t.len(), 2);
        assert_eq!((t[0].onset_s, t[0].offset_s), (140.0, 240.0));
        assert_eq!((t[1].onset_s, t[1].offset_s), (460.0, 580.0));
        // Clipped to a one-window stream from window 0.
        let t = stream_truth(&events, 4, 0, 1);
        assert_eq!((t[0].onset_s, t[0].offset_s), (100.0, 180.0));
    }
}
