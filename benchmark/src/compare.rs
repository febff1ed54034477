//! `benchmark compare A.jsonl B.jsonl`: is B worse than A?
//!
//! Both files hold the JSON lines `--append` writes, any number of runs per
//! workload. One row is printed per (metric, workload): the two medians, the
//! worsening of B relative to A, and a verdict. A metric may worsen by its
//! bound; where the spread between runs (or, with a single run a side, the
//! recorded spread between the run's segments) is wider than the bound, a
//! worsening inside that spread is `unresolved`, not `ok`.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::metrics::{Better, END_TO_END};
use crate::stats::quartiles;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// The values one side recorded for one (workload, metric).
#[derive(Clone, Debug, Default)]
struct Side {
    values: Vec<f64>,
    /// `(q3 - q1) / value` of the first run's own segments.
    inner_spread: Option<f64>,
}

impl Side {
    fn median(&self) -> f64 {
        quartiles(&self.values).1
    }

    /// Inter-quartile spread as a share of the median: between runs when
    /// there are several, else between the single run's segments.
    fn spread(&self) -> f64 {
        if self.values.len() >= 2 {
            let (q1, med, q3) = quartiles(&self.values);
            (q3 - q1) / med.abs().max(f64::MIN_POSITIVE)
        } else {
            self.inner_spread.unwrap_or(0.0)
        }
    }
}

/// Worsening of `b` relative to `a` as a share of `a` (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let base = a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => (b - a) / base,
        Better::Higher => (a - b) / base,
    }
}

pub fn verdict(worsening: f64, bound: f64, spread: f64) -> Verdict {
    if worsening <= bound {
        Verdict::Ok
    } else if worsening <= spread {
        Verdict::Unresolved
    } else {
        Verdict::Worse
    }
}

#[derive(Default)]
struct Runs {
    metrics: BTreeMap<(String, String), Side>,
    failed: BTreeMap<String, Vec<u64>>,
    digests: BTreeMap<String, Vec<String>>,
}

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut runs = Runs::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec: Value =
            serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let rec = rec
            .as_object()
            .ok_or_else(|| format!("{path}:{}: not an object", n + 1))?;
        if rec.get("trace").and_then(Value::as_bool) == Some(true) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?
            .to_owned();
        if let Some(f) = rec.get("failed").and_then(Value::as_u64) {
            runs.failed.entry(workload.clone()).or_default().push(f);
        }
        if let Some(d) = rec.get("outputs_digest").and_then(Value::as_str) {
            runs.digests
                .entry(workload.clone())
                .or_default()
                .push(d.to_owned());
        }
        let Some(metrics) = rec.get("metrics").and_then(Value::as_object) else {
            continue;
        };
        for (name, m) in metrics.iter() {
            let Some(m) = m.as_object() else { continue };
            let Some(value) = m.get("value").and_then(Value::as_f64) else {
                continue;
            };
            let side = runs
                .metrics
                .entry((workload.clone(), name.clone()))
                .or_default();
            side.values.push(value);
            if let (Some(q1), Some(q3)) = (
                m.get("q1").and_then(Value::as_f64),
                m.get("q3").and_then(Value::as_f64),
            ) {
                side.inner_spread
                    .get_or_insert((q3 - q1) / value.abs().max(f64::MIN_POSITIVE));
            }
        }
    }
    Ok(runs)
}

/// Prints the comparison; returns whether every row is `ok`.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut all_ok = true;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worsening", "bound", "spread"
    );
    for ((workload, metric), side_a) in &a.metrics {
        let Some(def) = END_TO_END.iter().find(|m| m.name == metric) else {
            continue;
        };
        let Some(side_b) = b.metrics.get(&(workload.clone(), metric.clone())) else {
            println!("{workload:<14} {metric:<14} missing from {b_path}  unresolved");
            all_ok = false;
            continue;
        };
        let (ma, mb) = (side_a.median(), side_b.median());
        let w = worsening(def.better, ma, mb);
        let spread = side_a.spread().max(side_b.spread());
        let v = verdict(w, def.bound, spread);
        all_ok &= v == Verdict::Ok;
        println!(
            "{workload:<14} {metric:<14} {ma:>14.4} {mb:>14.4} {:>8.2}% {:>6.1}% {:>7.2}%  {}",
            100.0 * w,
            100.0 * def.bound,
            100.0 * spread,
            match v {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    for (workload, fa) in &a.failed {
        let fb = b.failed.get(workload).cloned().unwrap_or_default();
        let (ma, mb) = (fa.iter().max(), fb.iter().max());
        // Failures are a count, not a timing: any more is worse.
        let ok = mb <= ma;
        all_ok &= ok;
        println!(
            "{workload:<14} {:<14} {:>14} {:>14}  {}",
            "failed",
            ma.copied().unwrap_or(0),
            mb.copied().unwrap_or(0),
            if ok { "ok" } else { "worse" }
        );
    }
    for (workload, da) in &a.digests {
        let db = b.digests.get(workload).cloned().unwrap_or_default();
        let mut all: Vec<&String> = da.iter().chain(&db).collect();
        all.sort();
        all.dedup();
        println!(
            "{workload:<14} {:<14} {}",
            "outputs_digest",
            if all.len() == 1 { "same" } else { "differs" }
        );
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
        assert!(worsening(Better::Lower, 100.0, 80.0) < 0.0);
    }

    #[test]
    fn bound_is_widened_to_the_spread_as_unresolved() {
        assert_eq!(verdict(0.05, 0.07, 0.01), Verdict::Ok);
        assert_eq!(verdict(-0.30, 0.07, 0.01), Verdict::Ok);
        assert_eq!(verdict(0.09, 0.07, 0.01), Verdict::Worse);
        assert_eq!(verdict(0.09, 0.07, 0.12), Verdict::Unresolved);
        assert_eq!(verdict(0.20, 0.07, 0.12), Verdict::Worse);
    }

    #[test]
    fn spread_comes_from_runs_when_there_are_several() {
        let one = Side {
            values: vec![100.0],
            inner_spread: Some(0.04),
        };
        assert_eq!(one.spread(), 0.04);
        let many = Side {
            values: (1..=10).map(f64::from).collect(),
            inner_spread: Some(0.5),
        };
        // quartiles 2.75 / 5.5 / 8.25
        assert!((many.spread() - 1.0).abs() < 1e-12);
    }
}
