//! Order statistics and the due-time latency arithmetic of the open loop.

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it (`p` in `(0, 100]`). Sorts `values` in place.
/// Returns `None` for an empty slice.
pub fn percentile(values: &mut [f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    Some(values[nearest_rank(values.len(), p)])
}

/// Zero-based index of the nearest-rank `p`-th percentile among `n` sorted
/// samples: `ceil(p / 100 · n) − 1`, clamped to the sample range.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Median by nearest rank (the lower middle for an even count).
pub fn median(values: &mut [f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The `p`-th percentile of each of `parts` consecutive, equal slices of
/// `values` (in time order), and the median of those. A stall that hits
/// one slice of a window moves this figure less than the whole-window
/// percentile. Returns `None` for an empty input.
pub fn median_of_parts(values: &[f64], parts: usize, p: f64) -> Option<f64> {
    let parts = parts.clamp(1, values.len().max(1));
    let size = values.len().div_ceil(parts);
    let mut per_part: Vec<f64> = values
        .chunks(size.max(1))
        .filter_map(|chunk| percentile(&mut chunk.to_vec(), p))
        .collect();
    median(&mut per_part)
}

/// Latency of an open-loop request, in microseconds: from when it was
/// *due* to be sent to when its response was complete. Timing from the
/// due time (not from the actual send) charges a stalled generator's wait
/// to every request the stall delayed, so a slow server cannot hide its
/// queue behind a late client (coordinated omission).
pub fn due_latency_us(due_ns: u64, done_ns: u64) -> f64 {
    done_ns.saturating_sub(due_ns) as f64 / 1_000.0
}

/// How late the generator handed a request to the socket, in microseconds
/// (0 when it was on time or early).
pub fn lag_us(due_ns: u64, sent_ns: u64) -> f64 {
    sent_ns.saturating_sub(due_ns) as f64 / 1_000.0
}

/// Due time of the `index`-th request of a constant-rate schedule, in
/// nanoseconds after the window opens.
pub fn due_ns(index: usize, rate_per_s: f64) -> u64 {
    (index as f64 * 1e9 / rate_per_s).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        // 100 samples 1..=100: p50 is the 50th, p99 the 99th, p100 the max.
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), Some(50.0));
        assert_eq!(percentile(&mut v, 99.0), Some(99.0));
        assert_eq!(percentile(&mut v, 100.0), Some(100.0));
        // 1,000 samples leave exactly 10 beyond the p99.
        let mut w: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&mut w, 99.0).unwrap();
        assert_eq!(w.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn nearest_rank_small_and_empty() {
        assert_eq!(percentile(&mut [], 50.0), None);
        assert_eq!(percentile(&mut [7.0], 99.0), Some(7.0));
        // Even count: the lower middle, never an interpolated value.
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(nearest_rank(3, 0.1), 0);
        assert_eq!(nearest_rank(3, 100.0), 2);
    }

    #[test]
    fn median_of_parts_shrugs_off_one_bad_slice() {
        // Five slices of 1,000 samples; one slice is a stall.
        let mut v: Vec<f64> = Vec::new();
        for part in 0..5 {
            let base = if part == 2 { 1_000.0 } else { 1.0 };
            v.extend((1..=1000).map(|i| base * f64::from(i) / 1000.0));
        }
        let whole = percentile(&mut v.clone(), 99.0).unwrap();
        let parts = median_of_parts(&v, 5, 99.0).unwrap();
        assert!(whole > 900.0);
        assert_eq!(parts, 0.99);
        assert_eq!(median_of_parts(&v[..1000], 1, 50.0), Some(0.5));
        assert_eq!(median_of_parts(&[], 3, 50.0), None);
    }

    #[test]
    fn due_time_latency_counts_the_generator_stall() {
        // 1,000 req/s: request 3 is due 3 ms into the window.
        assert_eq!(due_ns(3, 1000.0), 3_000_000);
        // Sent 2 ms late and answered 0.5 ms after the send: the latency
        // is 2.5 ms from the due time, the lag 2 ms.
        let due = due_ns(3, 1000.0);
        let sent = due + 2_000_000;
        let done = sent + 500_000;
        assert_eq!(due_latency_us(due, done), 2_500.0);
        assert_eq!(lag_us(due, sent), 2_000.0);
        // Early sends never yield negative lag.
        assert_eq!(lag_us(due, due - 10), 0.0);
        assert_eq!(due_latency_us(due, due - 10), 0.0);
    }
}
