//! Run-length logs of periodically sampled values.
//!
//! The recorders in [`crate::driver`] sample once per tick, and between
//! socket events consecutive ticks sample the same value at a constant
//! spacing. A [`Run`] stores such a stretch as `(first_at, step, count,
//! value)`, so a log grows with the number of *changes*, not with the
//! number of ticks, and range queries stay exact: a run's share of a
//! range is a count, and integer sums over it are `value × count`.

use littles::Nanos;

/// `count ≥ 1` equal samples taken `step` apart, the first at `first_at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Run<T> {
    /// Time of the first sample.
    pub first_at: Nanos,
    /// Spacing between samples; zero while the run holds one sample.
    pub step: Nanos,
    /// Number of samples.
    pub count: u64,
    /// The value every sample has.
    pub value: T,
}

impl<T> Run<T> {
    /// A run of one sample.
    pub fn new(at: Nanos, value: T) -> Self {
        Run {
            first_at: at,
            step: Nanos::ZERO,
            count: 1,
            value,
        }
    }

    /// Time of sample `k` (`k < count`).
    pub fn at(&self, k: u64) -> Nanos {
        self.first_at + self.step * k
    }

    /// Appends a sample taken at `at` if it continues the run's spacing
    /// (the second sample sets the spacing); returns whether it did.
    pub fn try_extend(&mut self, at: Nanos) -> bool {
        if self.count == 1 {
            match at.checked_sub(self.first_at) {
                Some(step) => self.step = step,
                None => return false,
            }
        } else if at != self.at(self.count) {
            return false;
        }
        self.count += 1;
        true
    }

    /// Appends `n` samples at spacing `step` to a run that is one sample
    /// long or already has that spacing.
    pub fn extend_by(&mut self, step: Nanos, n: u64) {
        if self.count == 1 {
            self.step = step;
        }
        debug_assert_eq!(self.step, step, "a run holds one spacing");
        self.count += n;
    }

    /// How many of the run's samples fall in `[from, to)`.
    pub fn count_in(&self, from: Nanos, to: Nanos) -> u64 {
        // Samples strictly before `t`: the index of the first one at or
        // after it, capped at `count`.
        let before = |t: Nanos| match t.checked_sub(self.first_at) {
            None => 0,
            Some(d) if d.is_zero() => 0,
            Some(_) if self.step.is_zero() => self.count,
            Some(d) => d.as_nanos().div_ceil(self.step.as_nanos()).min(self.count),
        };
        before(to).saturating_sub(before(from))
    }
}

/// An append-only log of samples, stored as [`Run`]s. The newest run is
/// kept inline so that extending it touches no heap memory.
#[derive(Debug, Clone)]
pub(crate) struct RunLog<T> {
    closed: Vec<Run<T>>,
    open: Option<Run<T>>,
}

impl<T> Default for RunLog<T> {
    fn default() -> Self {
        RunLog {
            closed: Vec::new(),
            open: None,
        }
    }
}

impl<T: Copy + PartialEq> RunLog<T> {
    /// Appends one sample: extends the newest run when the value and the
    /// spacing continue it, starts a new run otherwise.
    pub fn push(&mut self, at: Nanos, value: T) {
        if let Some(run) = &mut self.open {
            if run.value == value && run.try_extend(at) {
                return;
            }
            self.closed.push(*run);
        }
        self.open = Some(Run::new(at, value));
    }

    /// Appends `n` samples of `value`, `step` apart and the first at `at`
    /// — what `n` calls of [`push`](Self::push) leave behind, in constant
    /// time. The first two are pushed, which settles the run the stretch
    /// lands in and that its spacing is `step`; the rest are a count.
    pub fn push_n(&mut self, at: Nanos, step: Nanos, value: T, n: u64) {
        for k in 0..n.min(2) {
            self.push(at + step * k, value);
        }
        if let (Some(run), Some(rest)) = (&mut self.open, n.checked_sub(2)) {
            run.extend_by(step, rest);
        }
    }

    /// The runs, oldest first.
    pub fn runs(&self) -> impl Iterator<Item = &Run<T>> {
        self.closed.iter().chain(self.open.as_ref())
    }

    /// Each run's value with the number of its samples in `[from, to)`,
    /// oldest run first — what an exact sum or mean over a range needs.
    pub fn counts_in(&self, from: Nanos, to: Nanos) -> impl Iterator<Item = (T, u64)> + '_ {
        self.runs().map(move |run| (run.value, run.count_in(from, to)))
    }

    /// Number of runs stored.
    pub fn len(&self) -> usize {
        self.closed.len() + usize::from(self.open.is_some())
    }

    /// Whether nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.open.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Nanos {
        Nanos::from_micros(n)
    }

    /// Expands a log back into its samples.
    fn expand(log: &RunLog<u64>) -> Vec<(Nanos, u64)> {
        log.runs()
            .flat_map(|r| (0..r.count).map(move |k| (r.at(k), r.value)))
            .collect()
    }

    #[test]
    fn equal_evenly_spaced_samples_share_a_run() {
        let mut log = RunLog::default();
        for k in 0..100 {
            log.push(us(500 * k), 7u64);
        }
        assert_eq!(log.len(), 1);
        log.push(us(500 * 100), 8); // value change
        log.push(us(500 * 101), 8);
        log.push(us(500 * 101 + 200), 8); // spacing change
        assert_eq!(log.len(), 3);
        assert_eq!(expand(&log).len(), 103);
        assert_eq!(expand(&log).last(), Some(&(us(500 * 101 + 200), 8)));
    }

    #[test]
    fn expansion_reproduces_every_push() {
        // Irregular times, repeated values, repeated instants.
        let pushes: Vec<(Nanos, u64)> = [0, 10, 20, 30, 30, 30, 45, 60, 75, 76, 77, 90]
            .iter()
            .zip([1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 1])
            .map(|(&t, v)| (us(t), v))
            .collect();
        let mut log = RunLog::default();
        for &(at, v) in &pushes {
            log.push(at, v);
        }
        assert_eq!(expand(&log), pushes);
        assert!(log.len() < pushes.len());
    }

    #[test]
    fn push_n_equals_n_pushes() {
        // Every way a stretch can meet the open run: none yet, same value
        // at the same / another spacing, another value; every short length.
        let preludes: [&[(u64, u64)]; 5] = [
            &[],
            &[(0, 7)],
            &[(0, 7), (50, 7)],
            &[(0, 7), (20, 7)],
            &[(0, 9), (50, 9)],
        ];
        for prelude in preludes {
            for n in 0..6 {
                let (mut fast, mut slow) = (RunLog::default(), RunLog::default());
                for &(at, v) in prelude {
                    fast.push(us(at), v);
                    slow.push(us(at), v);
                }
                fast.push_n(us(100), us(50), 7, n);
                for k in 0..n {
                    slow.push(us(100 + 50 * k), 7);
                }
                // What follows lands alike, too.
                fast.push(us(100 + 50 * n), 7);
                slow.push(us(100 + 50 * n), 7);
                assert_eq!(fast.closed, slow.closed, "{prelude:?} + {n}");
                assert_eq!(fast.open, slow.open, "{prelude:?} + {n}");
            }
        }
    }

    #[test]
    fn count_in_matches_a_per_sample_filter() {
        let runs = [
            Run {
                first_at: us(100),
                step: us(50),
                count: 7,
                value: (),
            },
            Run {
                first_at: us(100),
                step: Nanos::ZERO,
                count: 3,
                value: (),
            },
            Run::new(us(100), ()),
        ];
        let edges = [0, 99, 100, 101, 149, 150, 151, 399, 400, 401, 1000];
        for run in &runs {
            for &from in &edges {
                for &to in &edges {
                    let (from, to) = (us(from), us(to));
                    let naive = (0..run.count)
                        .filter(|&k| run.at(k) >= from && run.at(k) < to)
                        .count() as u64;
                    assert_eq!(run.count_in(from, to), naive, "{run:?} in [{from}, {to})");
                }
            }
        }
    }
}
