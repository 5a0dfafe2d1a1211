//! Spans recorded by the benchmark around its calls into the fleet's
//! public API: name, start, end, parent, and the window a span belongs
//! to. Spans stay in memory and are written out when the run ends.
//!
//! A span's self time is its duration minus the part its child spans
//! cover. Calls into the fleet never overlap, so child coverage is the
//! sum of the children's durations; it is accumulated as spans close, so
//! self time is exact for every span, stored or not. Window spans (from
//! a window's arrival to the tick that decided it) overlap the calls and
//! are kept out of coverage. To bound memory, one in [`SAMPLE_EVERY`]
//! ingest spans and window spans is stored; every other span is.

use std::fmt::Write as _;
use std::time::Instant;

/// Every `SAMPLE_EVERY`-th ingest span and window span is stored.
pub const SAMPLE_EVERY: u64 = 64;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One measured phase.
    Phase,
    /// One saturation burst: its operations and the tick after them.
    Burst,
    /// `FleetScheduler::ingest`.
    Ingest,
    /// `FleetScheduler::ingest_row`.
    IngestRow,
    /// `FleetScheduler::tick_into`.
    Tick,
    /// `FleetScheduler::admit`.
    Admit,
    /// `FleetScheduler::remove`.
    Remove,
    /// `FleetScheduler::restart`.
    Restart,
    /// A window from its arrival to the return of the deciding tick.
    Window,
}

const NAMES: [Name; 9] = [
    Name::Phase,
    Name::Burst,
    Name::Ingest,
    Name::IngestRow,
    Name::Tick,
    Name::Admit,
    Name::Remove,
    Name::Restart,
    Name::Window,
];

impl Name {
    /// Span name as written out.
    pub fn label(self) -> &'static str {
        match self {
            Name::Phase => "phase",
            Name::Burst => "burst",
            Name::Ingest => "fleet.ingest",
            Name::IngestRow => "fleet.ingest_row",
            Name::Tick => "fleet.tick_into",
            Name::Admit => "fleet.admit",
            Name::Remove => "fleet.remove",
            Name::Restart => "fleet.restart",
            Name::Window => "window",
        }
    }
}

/// Window id shared by every span of one window: the patient in the
/// high half, the patient's running window count in the low half.
pub fn window_id(patient: u32, seq: u64) -> u64 {
    u64::from(patient) << 32 | (seq & 0xFFFF_FFFF)
}

/// Marks a span that belongs to no single window.
pub const NO_WINDOW: u64 = u64::MAX;

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span id (1-based; 0 is "no parent").
    pub id: u32,
    /// Id of the enclosing span.
    pub parent: u32,
    /// What it covers.
    pub name: Name,
    /// Start, ns since the tracer was built.
    pub start_ns: u64,
    /// End, ns since the tracer was built.
    pub end_ns: u64,
    /// Window id, or [`NO_WINDOW`].
    pub window: u64,
}

#[derive(Debug, Clone, Copy)]
struct Open {
    id: u32,
    parent: u32,
    name: Name,
    start_ns: u64,
    child_ns: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Agg {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// The span recorder; a disabled tracer records nothing and costs one
/// branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: u32,
    stack: Vec<Open>,
    spans: Vec<Span>,
    agg: [Agg; NAMES.len()],
}

impl Tracer {
    /// A tracer that records (`on`) or not.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            spans: Vec::new(),
            agg: [Agg::default(); NAMES.len()],
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (between phases).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Nanoseconds since the tracer was built.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: Name) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map_or(0, |o| o.id);
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id,
            parent,
            name,
            start_ns,
            child_ns: 0,
        });
        id
    }

    /// Closes the innermost span, tagged with `window` (or
    /// [`NO_WINDOW`]); returns its duration (0 when off).
    pub fn exit(&mut self, window: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let end_ns = self.now_ns();
        let o = self.stack.pop().expect("exit matches an enter");
        let dur = end_ns - o.start_ns;
        let a = &mut self.agg[o.name as usize];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(o.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let sampled = matches!(o.name, Name::Ingest | Name::IngestRow);
        if !sampled || u64::from(o.id) % SAMPLE_EVERY == 0 {
            self.spans.push(Span {
                id: o.id,
                parent: o.parent,
                name: o.name,
                start_ns: o.start_ns,
                end_ns,
                window,
            });
        }
        dur
    }

    /// Records a window span `[start_ns, end_ns]` under `parent`, outside
    /// the coverage tree (sampled by window id).
    pub fn window(&mut self, parent: u32, start_ns: u64, end_ns: u64, window: u64) {
        if !self.on {
            return;
        }
        let a = &mut self.agg[Name::Window as usize];
        a.count += 1;
        a.total_ns += end_ns.saturating_sub(start_ns);
        a.self_ns += end_ns.saturating_sub(start_ns);
        if (window ^ (window >> 32)).is_multiple_of(SAMPLE_EVERY) {
            let id = self.next_id;
            self.next_id += 1;
            self.spans.push(Span {
                id,
                parent,
                name: Name::Window,
                start_ns,
                end_ns,
                window,
            });
        }
    }

    /// Stored spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name `(label, count, total ns, self ns)`, over every span.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        NAMES
            .iter()
            .map(|&n| {
                let a = self.agg[n as usize];
                (n.label(), a.count, a.total_ns, a.self_ns)
            })
            .filter(|t| t.1 > 0)
            .collect()
    }

    /// The self-time table, one line per span name.
    pub fn self_time_table(&self) -> String {
        let mut s = String::from("span                 count      total_ms       self_ms\n");
        for (label, count, total, own) in self.self_times() {
            let _ = writeln!(
                s,
                "{label:<18} {count:>8} {:>13.3} {:>13.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        s
    }

    /// Writes the stored spans as tab-separated lines after a commented
    /// header (`header` lines and the self-time table).
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for line in header.lines().chain(self.self_time_table().lines()) {
            writeln!(f, "# {line}")?;
        }
        writeln!(f, "id\tparent\tname\tstart_ns\tend_ns\twindow")?;
        for s in &self.spans {
            let window = if s.window == NO_WINDOW {
                "-".to_string()
            } else {
                format!("{}:{}", s.window >> 32, s.window & 0xFFFF_FFFF)
            };
            writeln!(
                f,
                "{}\t{}\t{}\t{}\t{}\t{window}",
                s.id,
                s.parent,
                s.name.label(),
                s.start_ns,
                s.end_ns
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let mut t = Tracer::new(true);
        let burst = t.enter(Name::Burst);
        let child = t.enter(Name::Tick);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let child_ns = t.exit(window_id(3, 7));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let total_ns = t.exit(NO_WINDOW);
        let table = t.self_times();
        let (_, _, burst_total, burst_self) =
            table.iter().find(|r| r.0 == "burst").copied().unwrap();
        assert_eq!(burst_total, total_ns);
        assert_eq!(burst_self, total_ns - child_ns);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, child);
        assert_eq!(spans[0].parent, burst);
        assert_eq!(spans[0].window, 3 << 32 | 7);
        assert_eq!(spans[1].parent, 0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.enter(Name::Ingest), 0);
        assert_eq!(t.exit(NO_WINDOW), 0);
        t.window(0, 1, 2, 0);
        assert!(t.spans().is_empty() && t.self_times().is_empty());
    }
}
