//! Order statistics and the noise-aware verdict rule.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// Whether `a` is strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method).
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => return (0.0, 0.0),
        1 => return (v[0], v[0]),
        _ => {}
    }
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// The tail latency reported next to the median: the highest percentile
/// that still has at least ten samples beyond it (the sample with exactly
/// ten larger ones). Up to 20 samples that percentile would not exceed
/// the median, so the maximum is reported instead. Returns the value and
/// the percentile it stands for.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => (0.0, 0.0),
        1..=20 => (v[n - 1], 100.0),
        _ => (v[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}

/// The value at percentile `p` (nearest rank); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// How a head commit's runs compare with a base commit's runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    /// Within the bound, and the base runs are steady enough to say so.
    Same,
    /// Neither better nor worse could be shown.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `head` against `base` (runs paired by position).
///
/// A side is *better* only when it wins at least nine tenths of the
/// pairs (ties count for neither) and the medians differ by more than
/// the base's own interquartile spread. A metric with a `bound` is
/// *worse* when the head median is worse than the base median by more
/// than `bound` (a share of the base median) — unless the base spread
/// itself exceeds the bound and the runs overlap, which leaves it
/// unresolved. Metrics without a bound can only be better, worse (by the
/// same pair rule in the other direction) or unresolved.
pub fn verdict(base: &[f64], head: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let pairs = base.len().min(head.len());
    if pairs == 0 {
        return Verdict::Unresolved;
    }
    let (mb, mh) = (median(base), median(head));
    let (q1, q3) = quartiles(base);
    let spread = q3 - q1;
    let wins = (0..pairs)
        .filter(|&i| better.beats(head[i], base[i]))
        .count();
    let losses = (0..pairs)
        .filter(|&i| better.beats(base[i], head[i]))
        .count();
    let decisive = |count: usize| count * 10 >= pairs * 9 && (mh - mb).abs() > spread;
    if decisive(wins) {
        return Verdict::Better;
    }
    let Some(bound) = bound else {
        return if decisive(losses) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    };
    let limit = bound * mb.abs();
    let noisy = spread > limit;
    let all_worse = head
        .iter()
        .all(|&h| base.iter().all(|&b| better.beats(b, h)));
    if better.beats(mb, mh) && (mh - mb).abs() > limit {
        if noisy && !all_worse {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!(value, 990.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert!((pct - 99.0).abs() < 1e-9);
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&v).0, 11.0, "21 samples: ten beyond the 11th");
        // Too few samples for a percentile above the median: the maximum.
        let v: Vec<f64> = (1..=18).map(f64::from).collect();
        assert_eq!(tail(&v), (18.0, 100.0));
    }

    #[test]
    fn percentile_by_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn verdicts_follow_the_pair_and_bound_rules() {
        let base = [10.0, 10.1, 9.9, 10.05, 9.95];
        // Identical distributions: nothing shown.
        assert_eq!(
            verdict(&base, &base, Better::Lower, Some(0.1)),
            Verdict::Same
        );
        // Every pair wins and the gap exceeds the base spread.
        let faster = [9.0, 9.1, 8.9, 9.05, 8.95];
        assert_eq!(
            verdict(&base, &faster, Better::Lower, Some(0.1)),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &faster, Better::Higher, Some(0.1)),
            Verdict::Same,
            "8.9-9.1 is within 10% of 10 when higher is better"
        );
        // Worse by more than the bound.
        let slow = [12.0, 12.1, 11.9, 12.05, 11.95];
        assert_eq!(
            verdict(&base, &slow, Better::Lower, Some(0.1)),
            Verdict::Worse
        );
        // A base spread wider than the bound leaves an overlapping shift
        // unresolved.
        let noisy = [8.0, 12.0, 10.0, 14.0, 6.0];
        let shifted = [9.0, 13.0, 11.5, 15.0, 7.0];
        assert_eq!(
            verdict(&noisy, &shifted, Better::Lower, Some(0.1)),
            Verdict::Unresolved
        );
        // Without a bound only the pair rule speaks.
        assert_eq!(verdict(&base, &slow, Better::Lower, None), Verdict::Worse);
        assert_eq!(
            verdict(&base, &base, Better::Lower, None),
            Verdict::Unresolved
        );
        // Eight wins in ten pairs is not enough.
        let b: Vec<f64> = (0..10).map(|i| 10.0 + f64::from(i) * 0.01).collect();
        let mut h: Vec<f64> = b.iter().map(|x| x - 1.0).collect();
        h[0] = 11.0;
        h[1] = 11.0;
        assert_ne!(verdict(&b, &h, Better::Lower, None), Verdict::Better);
    }
}
