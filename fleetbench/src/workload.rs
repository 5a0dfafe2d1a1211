//! The three fleet workloads and the fixed parameters each one runs with.

/// ECG sampling rate of the Lite geometry (Hz).
pub const FS: f64 = 128.0;
/// Analysis window of the Lite geometry (s).
pub const WINDOW_S: f64 = 180.0;
/// Samples per analysis window (`FS × WINDOW_S`).
pub const WINDOW_LEN: usize = 23_040;
/// Samples in one 1-second device chunk.
pub const SECOND: usize = 128;

/// Which fleet topology a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Raw ECG in 1-second chunks, round-robin; scalar extraction.
    RawLive,
    /// Pre-extracted feature rows; classification and bookkeeping only.
    RowsFanin,
    /// Raw ECG bulk-synced in multi-window chunks, with artefacts and
    /// patient churn; lane-batched extraction.
    RawAdverse,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Topology.
    pub kind: Kind,
    /// Patients admitted at set-up.
    pub patients: usize,
    /// Offered rate of the paced phase, in windows per second. Fixed well
    /// below the lowest saturation throughput measured on the reference
    /// box (see README.md): a slower fleet shows up as latency and
    /// shedding instead of as a lower offered rate, while the shared box's
    /// own speed swings neither overload the seed nor dominate the
    /// latency.
    pub paced_rate: f64,
    /// Tick cadence of the paced phase (ms).
    pub cadence_ms: u64,
    /// Paced-phase latency limit (ms): two cadences.
    pub slo_limit_ms: u64,
    /// Watermark gate of the paced phase: shedding stops at this many
    /// pending rows... (Both marks sit far above the rows one tick
    /// holds, so a passing stall of the machine sheds nothing.)
    pub watermark_low: usize,
    /// ...once admitting a row beyond this many has triggered it.
    pub watermark_high: usize,
    /// Saturation bursts whose windows form the deterministic prefix that
    /// `undecided_ratio` and the event metrics are scored on.
    pub det_bursts: usize,
}

/// Every workload. `BENCHMARK.json` lists `raw_live` and `raw_adverse`;
/// `rows_fanin` runs the same way but is left out there because its
/// figures swing too far on a shared box (see README.md).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "raw_live",
        kind: Kind::RawLive,
        patients: 256,
        paced_rate: 700.0,
        cadence_ms: 20,
        slo_limit_ms: 40,
        watermark_low: 768,
        watermark_high: 1_024,
        det_bursts: 200,
    },
    Workload {
        name: "rows_fanin",
        kind: Kind::RowsFanin,
        patients: 4096,
        paced_rate: 150_000.0,
        cadence_ms: 10,
        slo_limit_ms: 20,
        watermark_low: 98_304,
        watermark_high: 131_072,
        det_bursts: 60,
    },
    Workload {
        name: "raw_adverse",
        kind: Kind::RawAdverse,
        patients: 256,
        paced_rate: 900.0,
        cadence_ms: 20,
        slo_limit_ms: 40,
        watermark_low: 768,
        watermark_high: 1_024,
        det_bursts: 150,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
