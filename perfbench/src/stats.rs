//! Sample summaries: a log-linear histogram, the reporting percentile
//! rule, and the metric list every run prints.

/// Sub-buckets per power of two. 64 keeps every bucket within 1/64
/// (1.6%) of its lower edge, fine enough to separate a 72 µs p50 from
/// an 80 µs one.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values below `SUB` get one exact bucket each; above, 64 per octave.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// A fixed-size histogram of `u64` samples (nanoseconds, or any count)
/// with at most 1/64 relative bucket width. Recording is two shifts and
/// an add, so the hot callbacks can afford it per batch.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            n: 0,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() - SUB_BITS + 1;
    let sub = (v >> (octave - 1)) - SUB;
    (octave as u64 * SUB + sub) as usize
}

/// Lowest value that lands in bucket `b`.
fn lower_edge(b: usize) -> u64 {
    let (octave, sub) = (b as u64 / SUB, b as u64 % SUB);
    if octave == 0 {
        sub
    } else {
        (SUB + sub) << (octave - 1)
    }
}

impl Histogram {
    /// Records `count` samples of value `v`.
    pub fn record_n(&mut self, v: u64, count: u64) {
        if count == 0 {
            return;
        }
        self.counts[bucket_of(v)] += count;
        self.n += count;
        self.max = self.max.max(v);
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Forgets every sample.
    fn clear(&mut self) {
        if self.n > 0 {
            self.counts.fill(0);
        }
        self.n = 0;
        self.max = 0;
    }

    /// Appends the nonzero buckets to `s`.
    fn append_to(&self, s: &mut Sparse) {
        s.buckets.extend(
            self.counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(b, &c)| (b as u32, c)),
        );
        s.max = s.max.max(self.max);
    }

    /// Adds the samples of `s`.
    fn add_sparse(&mut self, s: &Sparse) {
        for &(b, c) in &s.buckets {
            self.counts[b as usize] += c;
            self.n += c;
        }
        self.max = self.max.max(s.max);
    }

    /// Nearest-rank quantile: the value at rank `ceil(q * n)`, placed
    /// inside its bucket by linear interpolation over the bucket's
    /// samples (exact below 64). `0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let lo = lower_edge(b) as f64;
                let width = if b + 1 < BUCKETS {
                    lower_edge(b + 1) as f64 - lo
                } else {
                    u64::MAX as f64 - lo
                };
                if width <= 1.0 {
                    return lo;
                }
                let within = (rank - seen) as f64 - 0.5;
                let v = lo + width * within / c as f64;
                return v.min(self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }

    /// Median and tail per [`tail_quantile`], as a [`Timing`].
    pub fn timing(&self) -> Timing {
        let q = tail_quantile(self.n);
        Timing {
            p50: self.quantile(0.5),
            tail: if q >= 1.0 {
                self.max as f64
            } else {
                self.quantile(q)
            },
            tail_q: q,
            n: self.n,
        }
    }
}

/// The nonzero buckets of a [`Histogram`], as `(bucket, count)` pairs (a
/// bucket may repeat), and its largest sample.
#[derive(Clone, Default)]
struct Sparse {
    buckets: Vec<(u32, u64)>,
    max: u64,
}

/// Period `i` of `closed`, added if missing.
fn slot(closed: &mut Vec<Sparse>, i: usize) -> &mut Sparse {
    if i >= closed.len() {
        closed.resize_with(i + 1, Sparse::default);
    }
    &mut closed[i]
}

/// One histogram per fixed period of a measurement window, so a run can
/// report the median over periods of a per-period quantile: one stalled
/// period then moves the result by one rank instead of owning the tail.
///
/// Only the period being recorded is dense; a finished one keeps its
/// nonzero buckets. A dense histogram is ~30 KB, so one per period and
/// recorder would grow the process by ~100 KB/s of bookkeeping, which
/// the reported peak RSS would count as the job's.
#[derive(Clone, Default)]
pub struct Periodic {
    start_ns: u64,
    period_ns: u64,
    /// Finished periods, by index.
    closed: Vec<Sparse>,
    /// The period being recorded, and its index.
    open: Histogram,
    open_idx: usize,
}

impl Periodic {
    pub fn new(start_ns: u64, period_ns: u64) -> Self {
        Self {
            start_ns,
            period_ns: period_ns.max(1),
            ..Self::default()
        }
    }

    /// Records `count` samples of `v` observed at time `now_ns`.
    pub fn record_n(&mut self, now_ns: u64, v: u64, count: u64) {
        let Some(since) = now_ns.checked_sub(self.start_ns) else {
            return;
        };
        let i = (since / self.period_ns) as usize;
        if i != self.open_idx && self.open.len() > 0 {
            self.open.append_to(slot(&mut self.closed, self.open_idx));
            self.open.clear();
        }
        self.open_idx = i;
        self.open.record_n(v, count);
    }

    /// Periods that hold samples or lie before one that does.
    fn periods(&self) -> usize {
        let open = if self.open.len() > 0 {
            self.open_idx + 1
        } else {
            0
        };
        self.closed.len().max(open)
    }

    /// Period `i`'s samples, rebuilt into `h`.
    fn period_into(&self, i: usize, h: &mut Histogram) {
        h.clear();
        if let Some(s) = self.closed.get(i) {
            h.add_sparse(s);
        }
        if i == self.open_idx {
            h.merge(&self.open);
        }
    }

    /// Adds `other`'s samples period by period (both must share start and
    /// period, or be empty).
    pub fn merge(&mut self, other: &Periodic) {
        if self.periods() == 0 {
            self.start_ns = other.start_ns;
            self.period_ns = other.period_ns;
        }
        let mut h = Histogram::default();
        for i in 0..other.periods() {
            other.period_into(i, &mut h);
            h.append_to(slot(&mut self.closed, i));
        }
    }

    /// Median over the first `periods` periods of each one's `q`-quantile.
    pub fn median_quantile(&self, q: f64, periods: usize) -> f64 {
        let mut h = Histogram::default();
        let mut per = Vec::new();
        for i in 0..self.periods().min(periods) {
            self.period_into(i, &mut h);
            if h.len() > 0 {
                per.push(h.quantile(q));
            }
        }
        median(&per)
    }

    /// Samples recorded over all periods.
    pub fn len(&self) -> u64 {
        let closed: u64 = self
            .closed
            .iter()
            .flat_map(|s| &s.buckets)
            .map(|&(_, c)| c)
            .sum();
        closed + self.open.len()
    }
}

/// The highest of p90, p99, p99.9, p99.99 that leaves at least ten
/// samples beyond it; `1.0` (the maximum) when even p90 does not.
pub fn tail_quantile(n: u64) -> f64 {
    [0.9999, 0.999, 0.99, 0.9]
        .into_iter()
        .find(|q| (n as f64 * (1.0 - q) + 1e-6).floor() >= 10.0)
        .unwrap_or(1.0)
}

/// A timing summary: median, tail (`tail_q` says which percentile) and
/// sample count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    pub p50: f64,
    pub tail: f64,
    pub tail_q: f64,
    pub n: u64,
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the middle 80% of a sample: set-up times are bimodal (a
/// thread that lands on an idle CPU sometimes waits ~1 ms to run), so
/// their median flips between modes from run to run while this moves
/// only with the mix.
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    let mid = &v[cut..v.len() - cut];
    if mid.is_empty() {
        0.0
    } else {
        mid.iter().sum::<f64>() / mid.len() as f64
    }
}

#[cfg(test)]
/// Metric names are `[A-Za-z0-9_.-]+` starting with a letter or digit,
/// at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered metric list.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Four entries per timing: `.p50`, `.tail`, `.tail_q` and `.n`.
    /// `scale` converts recorded units to `unit` (e.g. ns to µs).
    pub fn put_timing(&mut self, name: &str, t: Timing, scale: f64, unit: &'static str) {
        self.put(format!("{name}.p50"), t.p50 * scale, unit);
        self.put(format!("{name}.tail"), t.tail * scale, unit);
        self.put(format!("{name}.tail_q"), t.tail_q, "quantile");
        self.put(format!("{name}.n"), t.n as f64, "count");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small xorshift so the test needs no dependency.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn quantiles_match_sorted_reference() {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        for round in 0..20 {
            let n = 1 + (xorshift(&mut s) % 5000) as usize;
            // Mix scales: exact small values through multi-second spans.
            let shift = (round % 5) * 9;
            let mut xs: Vec<u64> = (0..n)
                .map(|_| xorshift(&mut s) % (1u64 << (8 + shift)))
                .collect();
            let mut h = Histogram::default();
            for &x in &xs {
                h.record(x);
            }
            xs.sort_unstable();
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                let want = xs[rank - 1] as f64;
                let got = h.quantile(q);
                assert!(
                    (got - want).abs() <= want / 64.0 + 0.5,
                    "n={n} q={q}: histogram {got} vs sorted {want}"
                );
            }
            assert_eq!(h.len(), n as u64);
        }
    }

    #[test]
    fn merge_equals_recording_everything_once() {
        let (mut a, mut b, mut all) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for v in 0..1000u64 {
            let x = v * v;
            if v % 3 == 0 { &mut a } else { &mut b }.record(x);
            all.record(x);
        }
        a.merge(&b);
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
        assert_eq!(a.len(), all.len());
    }

    /// Sparse finished periods and the dense open one answer as a dense
    /// histogram per period would, merged or not, and in any order.
    #[test]
    fn periodic_matches_a_dense_histogram_per_period() {
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        let (start, period) = (1_000u64, 100u64);
        let mut parts = [Periodic::new(start, period), Periodic::new(start, period)];
        let mut dense: Vec<Histogram> = (0..9).map(|_| Histogram::default()).collect();
        for i in 0..4000u64 {
            let now = start + i / 5 + xorshift(&mut s) % 3;
            let v = xorshift(&mut s) % 100_000;
            parts[(i % 2) as usize].record_n(now, v, 1 + i % 3);
            dense[((now - start) / period) as usize].record_n(v, 1 + i % 3);
        }
        let mut merged = Periodic::default();
        for p in &parts {
            merged.merge(p);
        }
        for q in [0.5, 0.95, 0.99] {
            let per: Vec<f64> = dense.iter().map(|h| h.quantile(q)).collect();
            assert_eq!(merged.median_quantile(q, dense.len()), median(&per));
        }
        let total: u64 = dense.iter().map(Histogram::len).sum();
        assert_eq!(merged.len(), total);
        assert_eq!(parts[0].len() + parts[1].len(), total);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(0), 1.0);
        assert_eq!(tail_quantile(99), 1.0);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(999), 0.9);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(10_000), 0.999);
        assert_eq!(tail_quantile(100_000), 0.9999);
        assert_eq!(tail_quantile(u64::MAX / 2), 0.9999);
        for n in [100u64, 1000, 12_345, 10_000_000] {
            let q = tail_quantile(n);
            assert!(n as f64 * (1.0 - q) >= 10.0 - 1e-6);
        }
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("latency_p99_us"));
        assert!(valid_name("channel.wait_output_frac.src"));
        assert!(valid_name("9a-b"));
        assert!(!valid_name(""));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"a".repeat(65)));
    }
}
