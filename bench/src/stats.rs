//! The estimators: best-of-N minimum, median, nearest-rank percentile,
//! and the windowed best-of-N used for request latencies.
//!
//! Why minima: on the 2-vCPU sandbox identical work runs up to ~50 %
//! slower for seconds at a time (a busy sibling hyperthread shows as
//! neither steal nor load), so a mean or a single long timing measures
//! the neighbours. The fastest of many short repetitions measures the
//! program.

/// Smallest value; `None` for an empty slice.
pub fn min(v: &[f64]) -> Option<f64> {
    v.iter().copied().reduce(f64::min)
}

/// Largest value; `None` for an empty slice.
pub fn max(v: &[f64]) -> Option<f64> {
    v.iter().copied().reduce(f64::max)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Median (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v);
    match s.len() {
        0 => None,
        n if n % 2 == 1 => Some(s[n / 2]),
        n => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` % of
/// the samples at or below it. `p` in (0, 100].
pub fn percentile(v: &[f64], p: f64) -> Option<f64> {
    let s = sorted(v);
    if s.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    Some(s[rank.clamp(1, s.len()) - 1])
}

/// One completed request: when it finished (seconds since the measured
/// interval began) and how long the caller waited for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub done_s: f64,
    pub latency_ms: f64,
}

/// Latency summary of one time window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    pub n: usize,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub per_s: f64,
}

/// Summarises every window `[k * step_s, k * step_s + window_s)` that
/// lies inside `[0, span_s]`, by completion time; with `step_s` below
/// `window_s` the windows overlap, which gives the best-of-N more
/// candidates to find a quiet stretch of the host in. A window with
/// fewer than `min_samples` completions is dropped: its p95 would rest
/// on too few samples (the standard 2 s window holds ~300, so ≥ 10 lie
/// beyond p95).
pub fn split_windows(
    samples: &[Sample],
    window_s: f64,
    step_s: f64,
    span_s: f64,
    min_samples: usize,
) -> Vec<Window> {
    let mut by_time: Vec<Sample> = samples.iter().filter(|s| s.done_s >= 0.0).copied().collect();
    by_time.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    let mut out = Vec::new();
    let mut k = 0usize;
    loop {
        let from = k as f64 * step_s;
        if from + window_s > span_s + 1e-9 {
            return out;
        }
        k += 1;
        let lo = by_time.partition_point(|s| s.done_s < from);
        let hi = by_time.partition_point(|s| s.done_s < from + window_s);
        if hi - lo < min_samples.max(1) {
            continue;
        }
        let lat: Vec<f64> = by_time[lo..hi].iter().map(|s| s.latency_ms).collect();
        out.push(Window {
            n: lat.len(),
            p50_ms: percentile(&lat, 50.0).expect("window is non-empty"),
            p95_ms: percentile(&lat, 95.0).expect("window is non-empty"),
            per_s: lat.len() as f64 / window_s,
        });
    }
}

/// Best-of-N over windows: lowest p50, lowest p95, highest rate (each
/// may come from a different window). No surviving window is a failed
/// run, never a zero.
pub fn best_window(windows: &[Window]) -> Result<Window, String> {
    if windows.is_empty() {
        return Err("no window held enough completed requests".to_string());
    }
    let pick = |f: fn(&Window) -> f64| windows.iter().map(f).collect::<Vec<f64>>();
    Ok(Window {
        n: windows.iter().map(|w| w.n).min().expect("non-empty"),
        p50_ms: min(&pick(|w| w.p50_ms)).expect("non-empty"),
        p95_ms: min(&pick(|w| w.p95_ms)).expect("non-empty"),
        per_s: max(&pick(|w| w.per_s)).expect("non-empty"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_median_percentile_on_known_vectors() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(min(&v), Some(1.0));
        assert_eq!(max(&v), Some(5.0));
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(percentile(&v, 50.0), Some(3.0));
        assert_eq!(percentile(&v, 95.0), Some(5.0));
        assert_eq!(percentile(&v, 20.0), Some(1.0));
        assert_eq!(percentile(&v, 21.0), Some(2.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 95.0), Some(95.0));
        assert_eq!(percentile(&hundred, 100.0), Some(100.0));
        assert_eq!(min(&[]), None);
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    fn burst(from_s: f64, n: usize, latency_ms: f64) -> Vec<Sample> {
        (0..n).map(|i| Sample { done_s: from_s + i as f64 * 1e-3, latency_ms }).collect()
    }

    #[test]
    fn thin_windows_are_dropped_and_the_best_survivor_wins() {
        let mut s = burst(0.0, 300, 12.0);
        s.extend(burst(2.0, 199, 1.0)); // too thin: must not win
        s.extend(burst(4.0, 250, 9.0));
        s.extend(burst(99.0, 500, 0.1)); // after the measured interval
        s.extend(burst(-1.0, 500, 0.1)); // warm-up
        let w = split_windows(&s, 2.0, 2.0, 6.0, 200);
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].n, w[1].n), (300, 250));
        let best = best_window(&w).unwrap();
        assert_eq!(best.p50_ms, 9.0);
        assert_eq!(best.p95_ms, 9.0);
        assert_eq!(best.per_s, 150.0);
    }

    #[test]
    fn overlapping_windows_stay_inside_the_span() {
        // 100 completions per second for 5 s: windows of 2 s every 0.5 s
        // start at 0, 0.5, ..., 3.0 and each holds 200.
        let s: Vec<Sample> =
            (0..500).map(|i| Sample { done_s: i as f64 * 0.01, latency_ms: 1.0 }).collect();
        let w = split_windows(&s, 2.0, 0.5, 5.0, 200);
        assert_eq!(w.len(), 7);
        assert!(w.iter().all(|w| w.n == 200));
    }

    #[test]
    fn an_empty_run_is_a_failure_not_a_zero() {
        assert!(best_window(&split_windows(&[], 2.0, 0.5, 20.0, 200)).is_err());
        assert!(best_window(&split_windows(&burst(0.0, 10, 1.0), 2.0, 0.5, 20.0, 200)).is_err());
    }
}
