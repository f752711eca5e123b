//! How fast the machine is running right now.
//!
//! On a shared host the same work takes up to ~1.8× longer from one
//! moment to the next, and the two vCPUs of the reference machine drift
//! apart: timed side by side, one runs the same job 0.65–1.5× as fast as
//! the other, and the ratio changes within seconds (other tenants
//! contend for each core's SMT sibling, caches and memory). Unscaled,
//! ten runs of one workload spread by 0.15–0.6 of their median, wider
//! than any bound a benchmark can usefully fix.
//!
//! A window is therefore timed in short *chunks* of ops, and between
//! chunks, with no measured work in flight (no op running, the server
//! idle), the benchmark times a fixed probe job on the thread that
//! drives the work. Each chunk's times are scaled by [`REFERENCE_MS`]
//! over the mean of the probes on either side of it: the time the chunk
//! would have taken at the machine's reference speed.
//!
//! The probe is frozen benchmark code, so a change to the program cannot
//! speed it up or slow it down directly: it allocates nothing while
//! timed (so the program's heap is not its heap), and its time is the
//! median of [`RUNS`] back-to-back jobs, so the first job refills its
//! table and the program's cache footprint does not reach the median.
//! It has to run where the work runs. Over 25 repeats of one identical
//! segment, this probe's time correlated with the segment's median
//! latency at 0.92 (check-ar) and 0.83 (serve-repeat); the same probe in
//! a separate process, or as two concurrent threads, correlated at
//! −0.1 to −0.3: the scheduler ran it on a vCPU the work was not using.
//!
//! Scaling hides no regression. With a memory-heavy delay injected
//! into `Tree::parse` and `is_empty_transducer` (random writes into a
//! 64 MB buffer), eight alternating pairs of segments moved serve-repeat
//! by −21.6% `ops_per_s` and +33.5% `latency_p50_ms` scaled against
//! −21.8% and +34.5% unscaled, and check-ar `ops_per_s` by −8.3% against
//! −8.8%; the mean probe did not move (1.17× against 1.16× the
//! reference on serve-repeat, 1.12× against 1.12× on check-ar).

use std::time::Instant;

/// The probe's time at the reference machine's typical speed; scaled
/// times read as milliseconds at that speed.
pub const REFERENCE_MS: f64 = 0.15;

const SLOTS_LOG2: u32 = 17;
const INSERTS: u32 = 10_000;
/// Jobs per probe; the median is reported.
const RUNS: usize = 5;

/// The probe job: hash-cons a random DAG of [`INSERTS`] nodes into an
/// open-addressing table of 2^17 slots (1 MB) — the random-access,
/// cache-sized hashing that dominates the interner, the memos and the
/// solver cache, without allocating.
pub struct Probe {
    table: Vec<u64>,
    ids: Vec<u32>,
}

impl Probe {
    /// Allocates and touches the probe's memory.
    pub fn new() -> Probe {
        let mut p = Probe {
            table: vec![0; 1 << SLOTS_LOG2],
            ids: Vec::with_capacity(INSERTS as usize),
        };
        p.run();
        p
    }

    /// The median time of [`RUNS`] probe jobs, in milliseconds.
    pub fn ms(&mut self) -> f64 {
        let mut times = [0.0; RUNS];
        for t in &mut times {
            *t = self.run();
        }
        times.sort_by(f64::total_cmp);
        times[RUNS / 2]
    }

    /// Runs the probe job once; returns its time in milliseconds.
    fn run(&mut self) -> f64 {
        let start = Instant::now();
        self.table.fill(0);
        self.ids.clear();
        let mask = (1u64 << SLOTS_LOG2) - 1;
        let (mut x, mut next) = (7u64, 1u64);
        for i in 0..INSERTS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pick = |r: u64| {
                if i == 0 {
                    0
                } else {
                    u64::from(self.ids[(r % u64::from(i)) as usize])
                }
            };
            // A node is (label, child, child), packed into 40 key bits.
            let key = ((x % 50) << 34) ^ (pick(x) << 17) ^ pick(x >> 20);
            let mut h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
            let id = loop {
                let slot = &mut self.table[(h & mask) as usize];
                if *slot == 0 {
                    *slot = (key << 24) | next;
                    next += 1;
                    break next - 1;
                }
                if *slot >> 24 == key {
                    break *slot & 0xff_ffff;
                }
                h += 1;
            };
            self.ids.push(id as u32);
        }
        std::hint::black_box(&self.ids);
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Scales a window, chunk by chunk, to reference speed. It probes on
/// the thread that owns it.
pub struct Clock {
    probe: Probe,
    /// The probe taken at the end of the previous chunk.
    last_ms: f64,
    /// Every probe taken, in milliseconds.
    probes_ms: Vec<f64>,
}

impl Clock {
    /// Takes the first probe; call it just before the window starts.
    pub fn start() -> Clock {
        let mut probe = Probe::new();
        let last_ms = probe.ms();
        Clock {
            probe,
            last_ms,
            probes_ms: vec![last_ms],
        }
    }

    /// The factor that scales a time measured just before the first
    /// probe (set-up) to reference speed.
    pub fn start_factor(&self) -> f64 {
        REFERENCE_MS / self.probes_ms[0]
    }

    /// Ends a chunk: probes, and returns the factor that scales the
    /// chunk's times to reference speed.
    pub fn chunk_factor(&mut self) -> f64 {
        let now = self.probe.ms();
        self.probes_ms.push(now);
        let factor = 2.0 * REFERENCE_MS / (self.last_ms + now);
        self.last_ms = now;
        factor
    }

    /// The mean probe over its reference: how much slower than the
    /// reference the machine ran during the window.
    pub fn slowdown(&self) -> f64 {
        self.probes_ms.iter().sum::<f64>() / self.probes_ms.len() as f64 / REFERENCE_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_interns_repeated_nodes() {
        let mut p = Probe::new();
        assert!(p.ms() > 0.0);
        let distinct = p.table.iter().filter(|&&s| s != 0).count();
        assert_eq!(p.ids.len(), INSERTS as usize);
        assert!(
            distinct < INSERTS as usize,
            "some nodes repeat and are shared"
        );
        assert!(distinct > INSERTS as usize / 2);
    }

    #[test]
    fn clock_scales_by_the_bracketing_probes() {
        let mut clock = Clock::start();
        let factor = clock.chunk_factor();
        let mean = (clock.probes_ms[0] + clock.probes_ms[1]) / 2.0;
        assert!((factor * mean - REFERENCE_MS).abs() < 1e-12);
        assert!((clock.slowdown() * REFERENCE_MS - mean).abs() < 1e-12);
    }
}
