//! Host-speed calibration.
//!
//! The benchmark shares its host with other machines' work, and the
//! host's speed drifts by up to ~1.5× over tens of seconds as they
//! contend for its caches and memory. A run that lands in a slow stretch
//! then reads slow from end to end, however many rounds it repeats. So
//! the benchmark times a fixed kernel of its own between cells: random
//! read-modify-writes over a 4 MiB table, memory-bound like the
//! simulator. Every host timing is scaled by [`REFERENCE_S`] over the
//! kernel's time around it, which reports it as it would read on the
//! reference host at its typical speed. A change to the program moves
//! the scaled timings exactly as it moves the raw ones; the kernel is
//! not part of the program and no change to the program moves it.

use std::time::Instant;

/// The kernel's typical time between cells on the reference host (a
/// shared 2-vCPU Intel Xeon VM): the median over a few thousand samples
/// taken across benchmark runs, rounded.
pub const REFERENCE_S: f64 = 2.2e-3;

/// Table size in 64-bit words (4 MiB).
const TABLE_WORDS: usize = 1 << 19;
/// Read-modify-writes per sample.
const STEPS: u64 = 100_000;
/// [`HostClock::sample_if_due`] samples when the last sample is older.
const SPACING_S: f64 = 0.02;

/// A time interval on a [`HostClock`], in seconds since its origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Start.
    pub start: f64,
    /// End.
    pub end: f64,
}

impl Span {
    /// Length in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Samples the kernel over a run and scales timings by the samples
/// around them.
#[derive(Debug)]
pub struct HostClock {
    table: Vec<u64>,
    rng: u64,
    sink: u64,
    origin: Instant,
    /// `(midpoint since origin, kernel seconds)`, in time order.
    samples: Vec<(f64, f64)>,
}

impl Default for HostClock {
    fn default() -> Self {
        HostClock::new()
    }
}

impl HostClock {
    /// A clock with its table allocated and touched, and no samples.
    pub fn new() -> Self {
        HostClock {
            table: (0..TABLE_WORDS as u64).collect(),
            rng: 0x2545_F491_4F6C_DD1D,
            sink: 0,
            origin: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Seconds since the clock was made.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` and returns its result with the span it took.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, Span) {
        let start = self.now();
        let out = f();
        (
            out,
            Span {
                start,
                end: self.now(),
            },
        )
    }

    /// Times one run of the kernel.
    pub fn sample(&mut self) {
        let start = self.now();
        let n = self.table.len() as u64;
        let mut x = self.rng;
        let mut acc = self.sink;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % n) as usize;
            self.table[i] = self.table[i].wrapping_add(x);
            acc ^= self.table[i];
        }
        self.rng = x;
        self.sink = std::hint::black_box(acc);
        let end = self.now();
        self.samples.push(((start + end) / 2.0, end - start));
    }

    /// Samples unless the last sample is less than 20 ms old.
    pub fn sample_if_due(&mut self) {
        let due = self
            .samples
            .last()
            .map_or(true, |&(t, _)| self.now() - t >= SPACING_S);
        if due {
            self.sample();
        }
    }

    /// Samples taken so far.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// The factor that scales a timing over `span` to the reference
    /// host: [`REFERENCE_S`] over the mean kernel time of the samples
    /// from the last one before `span` to the first one after it. With
    /// no samples the factor is 1.
    pub fn factor(&self, span: Span) -> f64 {
        let s = &self.samples;
        if s.is_empty() {
            return 1.0;
        }
        let lo = s
            .partition_point(|&(t, _)| t <= span.start)
            .saturating_sub(1);
        let hi = s.partition_point(|&(t, _)| t < span.end).min(s.len() - 1);
        let around = &s[lo..=hi.max(lo)];
        let mean = around.iter().map(|&(_, k)| k).sum::<f64>() / around.len() as f64;
        REFERENCE_S / mean
    }

    /// `span`'s length scaled to the reference host.
    pub fn scaled(&self, span: Span) -> f64 {
        span.secs() * self.factor(span)
    }

    /// Median, least and greatest factor over every sample.
    pub fn factor_summary(&self) -> Option<(f64, f64, f64)> {
        let mut f: Vec<f64> = self.samples.iter().map(|&(_, k)| REFERENCE_S / k).collect();
        f.sort_by(f64::total_cmp);
        Some((crate::stats::median(&f)?, f[0], *f.last()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock(samples: &[(f64, f64)]) -> HostClock {
        HostClock {
            samples: samples.to_vec(),
            ..HostClock::new()
        }
    }

    #[test]
    fn factor_averages_the_samples_around_a_span() {
        let c = clock(&[
            (1.0, REFERENCE_S),
            (2.0, 2.0 * REFERENCE_S),
            (3.0, 4.0 * REFERENCE_S),
        ]);
        let span = |start, end| Span { start, end };
        // Between the first two samples: their mean, 1.5× the reference.
        assert!((c.factor(span(1.2, 1.8)) - 1.0 / 1.5).abs() < 1e-12);
        // Spanning the middle sample: all three.
        assert!((c.factor(span(1.5, 2.5)) - 3.0 / 7.0).abs() < 1e-12);
        // Before the first or after the last sample: the nearest one.
        assert!((c.factor(span(0.0, 0.5)) - 1.0).abs() < 1e-12);
        assert!((c.factor(span(3.5, 4.0)) - 0.25).abs() < 1e-12);
        assert!((c.scaled(span(3.5, 4.0)) - 0.125).abs() < 1e-12);
        assert_eq!(clock(&[]).factor(span(0.0, 1.0)), 1.0);
    }

    #[test]
    fn sampling_records_a_positive_kernel_time() {
        let mut c = HostClock::new();
        c.sample();
        c.sample_if_due();
        assert!(c.samples() >= 1);
        let (mid, lo, hi) = c.factor_summary().unwrap();
        assert!(lo > 0.0 && lo <= mid && mid <= hi);
    }
}
