//! Order statistics and the run's outcome tally.

/// The median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Ops that must lie strictly above the reported tail percentile.
pub const MIN_ABOVE_TAIL: usize = 10;

/// The nearest-rank `p`-quantile (`0 < p ≤ 1`) of `values`.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The 90th percentile, refused (with the reason) when fewer than
/// [`MIN_ABOVE_TAIL`] values lie strictly above it — a tail read from
/// fewer samples is not a measurement.
pub fn p90_checked(values: &[f64]) -> Result<f64, String> {
    let q = quantile(values, 0.9);
    let above = values.iter().filter(|&&x| x > q).count();
    if above < MIN_ABOVE_TAIL {
        return Err(format!(
            "op_ms.p90 refused: {above} of {} ops lie above it, at least {MIN_ABOVE_TAIL} are required",
            values.len()
        ));
    }
    Ok(q)
}

/// Outcome accounting: every attempted op either passes its output
/// check or counts as failed (a panic included); every answer set an op
/// returns is either complete or reported `Capped`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that panicked or failed their check.
    pub failed: u64,
    /// Answer sets returned.
    pub answers: u64,
    /// Answer sets reported `Capped`.
    pub capped: u64,
    /// The first failure's message.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Record one op's outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            self.first_failure.get_or_insert(msg);
        }
    }

    /// Record `n` answer sets, `capped` of them reported `Capped`.
    pub fn answers(&mut self, n: u64, capped: u64) {
        self.answers += n;
        self.capped += capped;
    }

    /// Ops whose output passed its check ÷ ops attempted.
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// Answer sets not reported `Capped` ÷ answer sets returned.
    pub fn uncapped_share(&self) -> f64 {
        if self.answers == 0 {
            return 0.0;
        }
        (self.answers - self.capped) as f64 / self.answers as f64
    }
}
