//! The generated API traffic: expected requests per window per endpoint.

use deeprest_metrics::TimeSeries;
use serde::{Deserialize, Serialize};

/// A multivariate traffic time-series: for every window `t` and API endpoint
/// `a`, the expected number of requests received in that window (the paper's
/// "requests per second for every exposed API endpoint", aggregated to the
/// scrape window).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ApiTraffic {
    apis: Vec<String>,
    windows_per_day: usize,
    /// `requests[t][a]`: expected requests for API `a` in window `t`.
    requests: Vec<Vec<f64>>,
}

impl ApiTraffic {
    /// Creates traffic from raw per-window per-API expected request counts.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent API arity or `windows_per_day` is 0.
    pub fn new(apis: Vec<String>, windows_per_day: usize, requests: Vec<Vec<f64>>) -> Self {
        assert!(
            windows_per_day > 0,
            "ApiTraffic: windows_per_day must be > 0"
        );
        assert!(
            requests.iter().all(|r| r.len() == apis.len()),
            "ApiTraffic: row arity must match API count"
        );
        Self {
            apis,
            windows_per_day,
            requests,
        }
    }

    /// API endpoint names, in column order.
    pub fn apis(&self) -> &[String] {
        &self.apis
    }

    /// Column index of an API endpoint.
    pub fn api_index(&self, api: &str) -> Option<usize> {
        self.apis.iter().position(|a| a == api)
    }

    /// Number of windows.
    pub fn window_count(&self) -> usize {
        self.requests.len()
    }

    /// Windows per simulated day.
    pub fn windows_per_day(&self) -> usize {
        self.windows_per_day
    }

    /// Expected requests for each API in window `t`.
    pub fn window(&self, t: usize) -> &[f64] {
        &self.requests[t]
    }

    /// Expected total requests in window `t` across all APIs.
    pub fn total_at(&self, t: usize) -> f64 {
        self.requests[t].iter().sum()
    }

    /// Per-window total request series.
    pub fn total_series(&self) -> TimeSeries {
        (0..self.window_count()).map(|t| self.total_at(t)).collect()
    }

    /// Per-window series of one API.
    ///
    /// # Panics
    ///
    /// Panics if the API is unknown.
    pub fn api_series(&self, api: &str) -> TimeSeries {
        let idx = self
            .api_index(api)
            .unwrap_or_else(|| panic!("ApiTraffic::api_series: unknown API {api}"));
        self.requests.iter().map(|r| r[idx]).collect()
    }

    /// Total expected requests over the whole period.
    pub fn grand_total(&self) -> f64 {
        self.requests.iter().flatten().sum()
    }

    /// The fraction of requests going to each API over the whole period.
    pub fn composition(&self) -> Vec<(String, f64)> {
        let total = self.grand_total().max(1e-12);
        self.apis
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let sum: f64 = self.requests.iter().map(|r| r[i]).sum();
                (a.clone(), sum / total)
            })
            .collect()
    }

    /// Scales all request counts by `factor` (e.g. "3x more users than
    /// ever").
    pub fn scale(&self, factor: f64) -> ApiTraffic {
        ApiTraffic {
            apis: self.apis.clone(),
            windows_per_day: self.windows_per_day,
            requests: self
                .requests
                .iter()
                .map(|r| r.iter().map(|v| v * factor).collect())
                .collect(),
        }
    }

    /// Keeps only windows in `range`, renumbered from zero.
    pub fn slice(&self, range: std::ops::Range<usize>) -> ApiTraffic {
        ApiTraffic {
            apis: self.apis.clone(),
            windows_per_day: self.windows_per_day,
            requests: self.requests[range].to_vec(),
        }
    }

    /// Concatenates another traffic block (same APIs, same windows per day)
    /// after this one.
    ///
    /// # Panics
    ///
    /// Panics if the API sets or windows-per-day differ.
    pub fn extend(&mut self, other: &ApiTraffic) {
        assert_eq!(self.apis, other.apis, "ApiTraffic::extend: API mismatch");
        assert_eq!(
            self.windows_per_day, other.windows_per_day,
            "ApiTraffic::extend: windows_per_day mismatch"
        );
        self.requests.extend(other.requests.iter().cloned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ApiTraffic {
        ApiTraffic::new(
            vec!["/composePost".into(), "/readTimeline".into()],
            2,
            vec![
                vec![1.0, 3.0],
                vec![2.0, 2.0],
                vec![0.0, 4.0],
                vec![1.0, 1.0],
            ],
        )
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.window_count(), 4);
        assert_eq!(t.total_at(0), 4.0);
        assert_eq!(
            t.api_series("/readTimeline").values(),
            &[3.0, 2.0, 4.0, 1.0]
        );
        assert_eq!(t.grand_total(), 14.0);
    }

    #[test]
    fn composition_sums_to_one() {
        let comp = sample().composition();
        let total: f64 = comp.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!((comp[0].1 - 4.0 / 14.0).abs() < 1e-9);
    }

    #[test]
    fn scale_multiplies_everything() {
        let t = sample().scale(3.0);
        assert_eq!(t.total_at(0), 12.0);
        assert_eq!(t.grand_total(), 42.0);
    }

    #[test]
    fn slice_and_extend() {
        let t = sample();
        let mut head = t.slice(0..2);
        assert_eq!(head.window_count(), 2);
        head.extend(&t.slice(2..4));
        assert_eq!(head.window_count(), 4);
        assert_eq!(head.total_series().values(), t.total_series().values());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn rejects_ragged_rows() {
        let _ = ApiTraffic::new(vec!["/a".into()], 1, vec![vec![1.0, 2.0]]);
    }
}
