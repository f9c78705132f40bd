//! The timed window and the numbers read from it.
//!
//! On a shared machine the program's speed moves with other tenants. On
//! a two-core virtual machine (Xeon, Sapphire Rapids, under KVM) a join
//! ran 1.7 times slower in bursts of a second to two minutes, and
//! between bursts its quiet speed drifted by a quarter over a few
//! minutes, while a pure arithmetic loop did not move. A probe of the
//! host — a fixed memory-bound task owned by the benchmark, sorting a
//! vector and probing a hash set — moved with the program through both:
//! by the same quarter through the drift, by 1.5 times in the bursts.
//!
//! So the window is cut into 0.25 s segments with a probe at every
//! boundary. A segment counts when the probes on both its sides took at
//! most [`QUIET`] times the run's fastest probe, which drops the bursts;
//! and the times of a counted segment are rescaled by its two probes to
//! the host speed at which the probe takes [`REFERENCE_PROBE_US`], which
//! removes the drift. Over a 300 s stretch of that machine with a
//! two-minute burst and the drift, cut into 15 s runs, the median of
//! counted, rescaled times spread by 0.02 of its median between runs;
//! dropping the bursts without rescaling spread by 0.19, rescaling
//! without dropping them by 0.09 (the program slowed more than the probe
//! in a burst).
//!
//! Which segments count is decided by the probe alone, never by the
//! program's own timings, so a change that slows the program in some
//! segments shows in every figure. Where fewer than a quarter of a
//! run's segments are quiet, the host kept it busy nearly throughout,
//! and every segment counts, rescaled.

use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Length of a segment.
const SEGMENT: Duration = Duration::from_millis(250);
/// Every this-many-th segment boundary also times one set-up.
const SETUP_EVERY: usize = 4;
/// A segment or set-up counts when the probes on both its sides took at
/// most this multiple of the run's fastest probe. (A probe cannot run
/// faster than the quiet host, so the fastest one marks the quiet speed
/// even in a run the host kept busy nearly throughout.)
const QUIET: f64 = 1.25;
/// The probe time all figures are rescaled to: about its median on the
/// quiet two-core machine above. Times are reported as they would read
/// on a host where the probe takes this long.
const REFERENCE_PROBE_US: f64 = 600.0;
/// Elements the probe sorts.
const PROBE_LEN: u64 = 1 << 14;

/// A set-up the window repeats at its segment boundaries.
pub type SetUp<'a> = &'a mut dyn FnMut() -> Result<(), String>;

/// The host probe: a fixed task, the same in every run.
struct Probe {
    values: Vec<u64>,
    members: HashSet<u64>,
}

impl Probe {
    fn new() -> Probe {
        let values: Vec<u64> = (0..PROBE_LEN).map(|i| mix(0, i)).collect();
        let members = values.iter().copied().step_by(3).collect();
        Probe { values, members }
    }

    /// Median of five timed repeats, microseconds. An untimed repeat
    /// goes first, so the probe finds its data in cache whatever the
    /// program left there: it measures the host, and a program that
    /// grows its working set is not rescaled as if the host had slowed.
    fn time_us(&self) -> f64 {
        let times: Vec<f64> = (0..6)
            .map(|_| {
                let t0 = Instant::now();
                let mut v = self.values.clone();
                v.sort_unstable();
                std::hint::black_box(v.iter().filter(|x| self.members.contains(x)).count());
                micros_since(t0)
            })
            .skip(1)
            .collect();
        median(&times)
    }
}

/// A stretch of time between two probes of the host.
#[derive(Clone, Copy)]
struct Probed {
    before_us: f64,
    after_us: f64,
}

impl Probed {
    fn quiet(self, limit_us: f64) -> bool {
        self.before_us.max(self.after_us) <= limit_us
    }

    /// The factor that rescales a time measured in this stretch to the
    /// reference host speed.
    fn scale(self) -> f64 {
        2.0 * REFERENCE_PROBE_US / (self.before_us + self.after_us)
    }
}

struct Segment {
    /// The probe that opens it.
    probe_us: f64,
    /// Seconds into the window: when its operations began (after the
    /// probe and any set-up), and when its last one was answered.
    begin_s: f64,
    end_s: f64,
    /// Index of its first operation in the window's latencies.
    first: usize,
}

/// The end-to-end figures of one run, read from the counted segments
/// and set-ups and rescaled to the reference host speed.
pub struct Summary {
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// Operations answered per second.
    pub throughput: f64,
    /// Median set-up, seconds.
    pub setup_s: f64,
    /// For the log: counted segments and set-ups, and all of them; the
    /// run's median probe and median latency as measured, microseconds.
    pub counted: (usize, usize),
    pub total: (usize, usize),
    pub probe_us: f64,
    pub measured_p50_us: f64,
}

pub struct Window {
    probe: Probe,
    start: Instant,
    deadline: Instant,
    next_boundary: Instant,
    segments: Vec<Segment>,
    /// The probe taken when the window passed, closing the last segment.
    closing_us: Option<f64>,
    latencies: Vec<f64>,
    /// Each timed set-up: seconds, and the probes around it.
    setups: Vec<(f64, Probed)>,
}

impl Window {
    /// A window of `length` that starts at the first [`Window::next`].
    pub fn new(length: Duration) -> Window {
        let now = Instant::now();
        Window {
            probe: Probe::new(),
            start: now,
            deadline: now + length,
            next_boundary: now,
            segments: Vec::new(),
            closing_us: None,
            latencies: Vec::new(),
            setups: Vec::new(),
        }
    }

    /// Times one set-up between two probes of the host.
    pub fn time_setup<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let before_us = self.probe.time_us();
        let t0 = Instant::now();
        let out = f()?;
        let seconds = t0.elapsed().as_secs_f64();
        let after_us = self.probe.time_us();
        self.setups.push((seconds, Probed { before_us, after_us }));
        Ok(out)
    }

    /// Call before each operation; false once the window has passed. At
    /// a segment boundary it probes the host and, every few segments,
    /// runs `setup` once through [`Window::time_setup`].
    pub fn next<'s>(
        &mut self,
        setup: Option<&mut (dyn FnMut() -> Result<(), String> + 's)>,
    ) -> Result<bool, String> {
        if self.segments.is_empty() {
            let length = self.deadline - self.start;
            self.start = Instant::now();
            self.deadline = self.start + length;
            self.next_boundary = self.start;
        }
        let now = Instant::now();
        if now >= self.deadline {
            if self.closing_us.is_none() {
                self.closing_us = Some(self.probe.time_us());
            }
            return Ok(false);
        }
        if now >= self.next_boundary {
            let probe_us = self.probe.time_us();
            if let Some(setup) = setup.filter(|_| self.segments.len() % SETUP_EVERY == 1) {
                self.time_setup(setup)?;
            }
            let begin = Instant::now();
            self.segments.push(Segment {
                probe_us,
                begin_s: self.seconds(begin),
                end_s: self.seconds(begin),
                first: self.latencies.len(),
            });
            self.next_boundary = begin + SEGMENT;
        }
        Ok(true)
    }

    /// Records an operation begun at `t0` and answered just now.
    pub fn answered(&mut self, t0: Instant) {
        let now = Instant::now();
        let at_s = self.seconds(now);
        if let Some(last) = self.segments.last_mut() {
            last.end_s = at_s;
        }
        self.latencies.push((now - t0).as_secs_f64() * 1e6);
    }

    /// Every answered operation's latency as measured, microseconds.
    pub fn latencies(&self) -> &[f64] {
        &self.latencies
    }

    fn seconds(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.start).as_secs_f64()
    }

    pub fn summary(&self) -> Summary {
        let probes: Vec<f64> = (self.segments.iter().map(|s| s.probe_us))
            .chain(self.closing_us)
            .chain(self.setups.iter().flat_map(|(_, p)| [p.before_us, p.after_us]))
            .collect();
        let quiet_us = QUIET * probes.iter().copied().fold(f64::INFINITY, f64::min);

        // each segment with the probes on both its sides and its operations
        let segments: Vec<(Probed, &Segment, &[f64])> = (self.segments.iter().enumerate())
            .map(|(i, seg)| {
                let next = self.segments.get(i + 1);
                let probed = Probed {
                    before_us: seg.probe_us,
                    after_us: (next.map(|s| s.probe_us).or(self.closing_us))
                        .unwrap_or(seg.probe_us),
                };
                let end = next.map_or(self.latencies.len(), |s| s.first);
                let ops = self.latencies.get(seg.first..end).unwrap_or_default();
                (probed, seg, ops)
            })
            .collect();
        let limit_us = counted_limit(segments.iter().map(|s| s.0), quiet_us);
        let (mut latencies, mut seconds, mut counted) = (Vec::new(), 0.0, 0);
        for (probed, seg, ops) in segments.iter().filter(|s| s.0.quiet(limit_us)) {
            let f = probed.scale();
            latencies.extend(ops.iter().map(|l| l * f));
            seconds += (seg.end_s - seg.begin_s) * f;
            counted += 1;
        }

        let limit_us = counted_limit(self.setups.iter().map(|s| s.1), quiet_us);
        let setups: Vec<f64> = (self.setups.iter())
            .filter(|(_, p)| p.quiet(limit_us))
            .map(|(s, p)| s * p.scale())
            .collect();
        Summary {
            p50_us: median(&latencies),
            throughput: if seconds > 0.0 {
                latencies.len() as f64 / seconds
            } else {
                0.0
            },
            setup_s: median(&setups),
            counted: (counted, setups.len()),
            total: (self.segments.len(), self.setups.len()),
            probe_us: median(&probes),
            measured_p50_us: median(&self.latencies),
        }
    }
}

/// The probe limit under which a stretch counts: `quiet_us` where at
/// least a quarter of the stretches are quiet; otherwise none, and every
/// stretch counts. (In a run the host kept busy throughout, the few
/// stretches under the limit are the ones whose probes happened to run
/// fast, and rescaling by those probes overstates their times: picking
/// the quietest quarter spread such runs by 0.10 to 0.12 of the median,
/// counting every stretch by 0.02 to 0.06.)
fn counted_limit(stretches: impl Iterator<Item = Probed>, quiet_us: f64) -> f64 {
    let (mut quiet, mut all) = (0, 0);
    for p in stretches {
        all += 1;
        quiet += usize::from(p.quiet(quiet_us));
    }
    if 4 * quiet >= all {
        quiet_us
    } else {
        f64::INFINITY
    }
}

/// Median of unsorted values, the mean of the middle two for an even
/// count (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    match (v.len() % 2, v.get(mid.wrapping_sub(1)), v.get(mid)) {
        (0, Some(a), Some(b)) => (a + b) / 2.0,
        (_, _, Some(m)) => *m,
        _ => 0.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn micros_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// SplitMix64: derives independent, reproducible sub-seeds from the run
/// seed, so every input of a run is a function of `--seed` alone.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
