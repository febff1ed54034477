//! Minimal command-line argument parsing shared by all experiments.

/// Parsed experiment options.
#[derive(Clone, Debug)]
pub struct Args {
    /// Master seed; all other seeds derive from it.
    pub seed: u64,
    /// Concurrent users during application learning.
    pub users: f64,
    /// Learning days.
    pub days: usize,
    /// Scrape windows per day.
    pub windows_per_day: usize,
    /// GRU hidden units.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Train the full expert swarm (all resources) instead of the Fig. 8
    /// focus set.
    pub full: bool,
    /// Use the paper's SGD optimizer instead of Adam.
    pub paper_sgd: bool,
    /// Worker threads for training, prediction and repeated queries.
    /// `None` defers to `DEEPREST_THREADS` / the available parallelism;
    /// any value yields bit-identical results (`1` forces serial runs).
    pub threads: Option<usize>,
    /// Telemetry sink spec (`off`, `memory`, `jsonl`, `jsonl:<path>`).
    /// `None` defers to the `DEEPREST_TELEMETRY` env var. The bare
    /// `on`/`1`/`jsonl` forms resolve to `<out>/telemetry.jsonl` when
    /// installed by [`Args::install_telemetry`].
    pub telemetry: Option<String>,
    /// Output directory for JSON result dumps.
    pub out: String,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            seed: 17,
            users: 120.0,
            days: 7,
            windows_per_day: 96,
            hidden: 32,
            epochs: 30,
            full: false,
            paper_sgd: false,
            threads: None,
            telemetry: None,
            out: "target/experiments".to_owned(),
        }
    }
}

impl Args {
    /// Resolves and installs the `--telemetry` spec, if any (the bare
    /// `on`/`1`/`jsonl` forms write to `<out>/telemetry.jsonl`). Separate
    /// from parsing so [`Args::parse_from`] stays side-effect free for tests.
    pub fn install_telemetry(&self) {
        let Some(spec) = &self.telemetry else { return };
        // Route the bare "enable" spellings into the run's output directory
        // so the JSONL lands next to the experiment dumps.
        let resolved = match spec.trim() {
            "1" | "on" | "true" | "jsonl" => format!("jsonl:{}/telemetry.jsonl", self.out),
            other => other.to_owned(),
        };
        if let Err(err) = deeprest_telemetry::install(&resolved) {
            panic!("--telemetry {spec}: {err}");
        }
    }

    /// Parses an explicit iterator (testable).
    ///
    /// # Panics
    ///
    /// Panics on unknown flags or unparsable values.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Self::default();
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            let mut value = |name: &str| {
                iter.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--seed" => out.seed = value("--seed").parse().expect("--seed u64"),
                "--users" => out.users = value("--users").parse().expect("--users f64"),
                "--days" => out.days = value("--days").parse().expect("--days usize"),
                "--windows-per-day" => {
                    out.windows_per_day = value("--windows-per-day")
                        .parse()
                        .expect("--windows-per-day usize");
                }
                "--hidden" => out.hidden = value("--hidden").parse().expect("--hidden usize"),
                "--epochs" => out.epochs = value("--epochs").parse().expect("--epochs usize"),
                "--full" => out.full = true,
                "--paper-sgd" => out.paper_sgd = true,
                "--threads" => {
                    out.threads = Some(value("--threads").parse().expect("--threads usize"));
                }
                "--telemetry" => out.telemetry = Some(value("--telemetry")),
                "--out" => out.out = value("--out"),
                other => panic!("unknown flag {other}; see crate docs for usage"),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn defaults_when_empty() {
        let a = Args::parse_from(strs(&[]));
        assert_eq!(a.seed, 17);
        assert_eq!(a.windows_per_day, 96);
        assert!(!a.full);
    }

    #[test]
    fn parses_flags() {
        let a = Args::parse_from(strs(&[
            "--seed", "5", "--users", "300", "--full", "--hidden", "64", "--out", "/tmp/x",
        ]));
        assert_eq!(a.seed, 5);
        assert_eq!(a.users, 300.0);
        assert!(a.full);
        assert_eq!(a.hidden, 64);
        assert_eq!(a.out, "/tmp/x");
        assert_eq!(a.threads, None);
    }

    #[test]
    fn parses_threads() {
        let a = Args::parse_from(strs(&["--threads", "4"]));
        assert_eq!(a.threads, Some(4));
    }

    #[test]
    fn parses_telemetry_without_installing() {
        let a = Args::parse_from(strs(&["--telemetry", "memory"]));
        assert_eq!(a.telemetry.as_deref(), Some("memory"));
        // parse_from has no side effects: the global sink is untouched.
        let b = Args::parse_from(strs(&[]));
        assert_eq!(b.telemetry, None);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn rejects_unknown_flags() {
        let _ = Args::parse_from(strs(&["--bogus"]));
    }
}
