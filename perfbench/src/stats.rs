//! Summary statistics and failure accounting shared by every workload.

/// The median of `values` (mean of the two middle values for an even
/// count); `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile `pct` (1..=100) of `values`; `0.0` when empty.
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), pct) - 1]
}

/// The fastest sample: what every gated time and rate is taken at.
/// Host contention on a shared machine switches every few seconds
/// between a fast and a slow level up to twice as slow, the share of
/// samples at each level differs from run to run, and for minutes at a
/// time the host can be calm or loaded throughout. Every percentile
/// above the lowest moves with that share and with the host's load;
/// the fastest sample is the time the program needs when the host
/// leaves it alone, which is what a change to the program moves.
/// `0.0` for an empty slice.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The 1-based nearest rank of percentile `pct` among `n` samples.
fn nearest_rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).clamp(1, n)
}

/// Samples a tail percentile may need beyond it to count as measured.
pub const TAIL_BEYOND: usize = 10;

/// Tail percentiles tried from the highest down.
const TAIL_LADDER: [u32; 6] = [99, 95, 90, 80, 75, 50];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`TAIL_BEYOND`] samples strictly beyond its nearest rank, or `None`
/// when even the median has fewer (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_LADDER.into_iter().find(|&pct| n > 0 && n - nearest_rank(n, pct) >= TAIL_BEYOND)
}

/// The tail of `values` by the [`tail_percentile`] rule: the percentile
/// used and its value. With fewer than 20 samples no percentile
/// qualifies, and the maximum (reported as percentile 100) stands in.
pub fn tail(values: &[f64]) -> (u32, f64) {
    let pct = tail_percentile(values.len()).unwrap_or(100);
    (pct, percentile(values, pct))
}

/// Operations attempted and failed over one benchmark run.
///
/// An operation fails when it returns an error (a `RunError`, a non-200
/// response, a cell with a soundness violation) or when it belongs to a
/// pass whose output check failed: a wrong answer is no answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that failed.
    pub failed_checks: u64,
}

impl Tally {
    /// Records one pass of `ops` operations, `errors` of which failed on
    /// their own. When `check_ok` is false every operation of the pass
    /// counts as failed.
    pub fn pass(&mut self, ops: u64, errors: u64, check_ok: bool) {
        self.attempted += ops;
        if check_ok {
            self.failed += errors.min(ops);
        } else {
            self.failed += ops;
            self.failed_checks += 1;
        }
    }

    /// Failed over attempted operations; `0.0` before any attempt.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether every operation and every check succeeded.
    pub fn all_ok(&self) -> bool {
        self.failed == 0 && self.failed_checks == 0
    }
}
