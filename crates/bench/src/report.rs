//! Terminal and JSON reporting for the experiments.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use deeprest_metrics::TimeSeries;

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Prints one labelled sparkline "curve" (our terminal stand-in for the
/// paper's line plots), with min/mean/max annotations.
pub fn curve(label: &str, series: &TimeSeries, width: usize) {
    println!(
        "  {label:<26} {}  [min {:8.2}  mean {:8.2}  max {:8.2}]",
        series.sparkline(width),
        series.min(),
        series.mean(),
        series.max()
    );
}

/// Prints a MAPE comparison row set: one row per estimator.
pub fn mape_rows(target: &str, rows: &[(String, f64)]) {
    println!("  {target}");
    let best = rows.iter().map(|(_, m)| *m).fold(f64::INFINITY, f64::min);
    for (name, mape) in rows {
        let marker = if (*mape - best).abs() < 1e-9 {
            "  <-- best"
        } else {
            ""
        };
        println!("    {name:<18} MAPE {mape:7.2}%{marker}");
    }
}

/// A ready-to-serialize experiment record.
#[derive(serde::Serialize)]
pub struct ExperimentRecord<'a, T: serde::Serialize> {
    /// Experiment id, e.g. `fig14`.
    pub id: &'a str,
    /// Human title.
    pub title: &'a str,
    /// Arbitrary result payload.
    pub results: T,
}

/// Writes an experiment record as pretty JSON under `out_dir/<id>.json`.
///
/// Failures are reported to stderr but never abort the experiment (results
/// were already printed).
pub fn dump_json<T: serde::Serialize>(out_dir: &str, id: &str, title: &str, results: &T) {
    let record = ExperimentRecord { id, title, results };
    let path = Path::new(out_dir).join(format!("{id}.json"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(out_dir)?;
        let mut f = std::fs::File::create(&path)?;
        let json = serde_json::to_string_pretty(&record).map_err(std::io::Error::other)?;
        f.write_all(json.as_bytes())
    };
    match write() {
        Ok(()) => {
            deeprest_telemetry::counter("bench.figure_dumps", 1);
            println!("  [results written to {}]", path.display());
        }
        Err(e) => eprintln!("  [warning: could not write {}: {e}]", path.display()),
    }
}

/// Renders a grid of MAPE values as the Fig. 12-style heatmap, one row per
/// resource, one column per component, with a coarse glyph scale:
/// `#` ≤10%, `+` ≤20%, `o` ≤40%, `x` ≤80%, `X` >80%, `.` not applicable.
pub fn heatmap(
    title: &str,
    components: &[&str],
    resources: &[&str],
    cells: &BTreeMap<(String, String), f64>,
) {
    println!("  {title}");
    print!("    {:<18}", "");
    for c in components {
        print!("{:<22}", c);
    }
    println!();
    for r in resources {
        print!("    {r:<18}");
        for c in components {
            match cells.get(&((*c).to_owned(), (*r).to_owned())) {
                Some(m) => print!("{:<22}", format!("{} {:6.1}%", glyph(*m), m)),
                None => print!("{:<22}", ".  (n/a)"),
            }
        }
        println!();
    }
    println!("    scale: # <=10%  + <=20%  o <=40%  x <=80%  X >80%");
}

fn glyph(mape: f64) -> char {
    match mape {
        m if m <= 10.0 => '#',
        m if m <= 20.0 => '+',
        m if m <= 40.0 => 'o',
        m if m <= 80.0 => 'x',
        _ => 'X',
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glyph_scale_is_monotone() {
        assert_eq!(glyph(5.0), '#');
        assert_eq!(glyph(15.0), '+');
        assert_eq!(glyph(30.0), 'o');
        assert_eq!(glyph(60.0), 'x');
        assert_eq!(glyph(150.0), 'X');
    }

    #[test]
    fn dump_json_writes_file() {
        let dir = std::env::temp_dir().join("deeprest-report-test");
        let dir_s = dir.to_string_lossy().to_string();
        dump_json(&dir_s, "t1", "test", &vec![1, 2, 3]);
        let content = std::fs::read_to_string(dir.join("t1.json")).unwrap();
        assert!(content.contains("\"id\": \"t1\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
