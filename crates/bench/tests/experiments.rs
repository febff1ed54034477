//! The experiment runner's record, checked two ways.
//!
//! A smoke-sized `deeprest experiment all` must reproduce its committed
//! `EXPERIMENTS.json` byte for byte, and the committed full-size
//! `EXPERIMENTS.json` at the repository root (`deeprest experiment all` at
//! the defaults) must hold the paper's claims listed below. The three claims
//! it does not hold are `#[ignore]`d assertions: `cargo test -p
//! deeprest-bench --test experiments -- --ignored` reproduces each failure.
//!
//! Regenerate the smoke fixture only via `DEEPREST_UPDATE_GOLDEN=1`, and
//! the full-size record by copying `target/experiments/EXPERIMENTS.json`
//! after a default `experiment all`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use serde_json::Value;

const SMOKE_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/experiments_smoke.json"
);
const FULL_RECORD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.json");
/// `--windows-per-day` at the defaults the full-size record is run at.
const WINDOWS_PER_DAY: u64 = 96;

fn records(text: &str) -> Vec<Value> {
    let parsed: Value = serde_json::from_str(text).expect("EXPERIMENTS.json parses");
    parsed.as_array().expect("an array of records").clone()
}

/// The ids of the records `got` and `want` disagree on, position by
/// position.
fn differing_ids(got: &str, want: &str) -> Vec<String> {
    let (got, want) = (records(got), records(want));
    let mut ids: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g != w)
        .map(|(g, _)| at(g, &["id"]).as_str().unwrap_or("?").to_owned())
        .collect();
    if got.len() != want.len() {
        ids.push(format!("{} records against {}", got.len(), want.len()));
    }
    ids
}

#[test]
fn smoke_run_reproduces_its_committed_record() {
    let out: PathBuf =
        std::env::temp_dir().join(format!("deeprest-experiments-smoke-{}", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_deeprest"))
        .args(["experiment", "all", "--days", "2", "--epochs", "1"])
        .args(["--hidden", "4", "--out"])
        .arg(&out)
        .stdout(Stdio::null())
        .status()
        .expect("deeprest runs");
    assert!(status.success(), "experiment all exited with {status}");
    let got = std::fs::read_to_string(out.join("EXPERIMENTS.json")).expect("record written");
    std::fs::remove_dir_all(&out).ok();

    if std::env::var_os("DEEPREST_UPDATE_GOLDEN").is_some() {
        std::fs::write(SMOKE_FIXTURE, &got).expect("fixture written");
        return;
    }
    let want = std::fs::read_to_string(SMOKE_FIXTURE).expect("committed fixture");
    assert!(
        got == want,
        "the smoke record moved; records that differ: {:?}",
        differing_ids(&got, &want)
    );
}

/// The committed full-size record's results, by experiment id.
fn full(id: &str) -> Value {
    let text = std::fs::read_to_string(Path::new(FULL_RECORD)).expect("committed EXPERIMENTS.json");
    let record = records(&text)
        .into_iter()
        .find(|r| at(r, &["id"]).as_str() == Some(id))
        .unwrap_or_else(|| panic!("no `{id}` record"));
    at(&record, &["results"]).clone()
}

fn at<'a>(value: &'a Value, path: &[&str]) -> &'a Value {
    path.iter().fold(value, |v, key| {
        v.as_object()
            .and_then(|o| o.get(key))
            .unwrap_or_else(|| panic!("no `{key}` in {v:?}"))
    })
}

fn num(value: &Value) -> f64 {
    value.as_f64().expect("a number")
}

fn days(value: &Value) -> Vec<u64> {
    let list = value.as_array().expect("a list of days");
    list.iter().map(|d| d.as_u64().expect("a day")).collect()
}

/// `(component, estimator)` cells of one sweep setting where an estimator
/// other than DeepRest has the lowest worst-case CPU MAPE.
fn cells_deeprest_loses(setting: &Value) -> Vec<(String, String)> {
    let worst = at(setting, &["worst_case_cpu_mape"])
        .as_object()
        .expect("by estimator");
    let ours = at(setting, &["worst_case_cpu_mape", "DeepRest"]);
    let mut lost = Vec::new();
    for (component, mape) in ours.as_object().expect("by component").iter() {
        for (estimator, theirs) in worst.iter().filter(|(e, _)| *e != "DeepRest") {
            if num(at(theirs, &[component])) < num(mape) {
                lost.push((component.clone(), estimator.clone()));
            }
        }
    }
    lost
}

fn settings(id: &str) -> Vec<Value> {
    full(id).as_array().expect("one entry per setting").clone()
}

#[test]
fn fig14_deeprest_has_the_lowest_worst_case_cpu_mape_in_every_cell() {
    let settings = settings("fig14");
    assert_eq!(settings.len(), 3);
    for setting in &settings {
        assert_eq!(cells_deeprest_loses(setting), vec![], "{setting:?}");
    }
}

#[test]
fn fig16a_deeprest_has_the_lowest_worst_case_cpu_mape_in_every_cell() {
    let settings = settings("fig16a");
    assert_eq!(settings.len(), 1);
    assert_eq!(cells_deeprest_loses(&settings[0]), vec![]);
}

#[test]
fn fig15_unseen_mix_deeprest_wins_on_the_three_back_end_components() {
    let unseen = &settings("fig15")[1];
    let lost: Vec<String> = cells_deeprest_loses(unseen)
        .into_iter()
        .map(|(component, _)| component)
        .collect();
    // FrontendNGINX is the one unseen-mix cell DeepRest does not win.
    assert_eq!(lost, vec!["FrontendNGINX"]);
}

#[test]
fn fig17_deeprest_beats_every_baseline_on_hotel_frontend_cpu() {
    let fig17 = full("fig17");
    let rows = at(&fig17, &["mape"])
        .as_array()
        .expect("one row per estimator");
    let mape = |name: &str| {
        let row = rows
            .iter()
            .find(|r| r.as_array().expect("a row")[0].as_str() == Some(name))
            .unwrap_or_else(|| panic!("no {name} row"));
        num(&row.as_array().expect("a row")[1])
    };
    for baseline in ["resrc-aware DL", "simple scaling", "component-aware"] {
        assert!(mape("DeepRest") < mape(baseline), "{baseline}");
    }
}

#[test]
fn fig19_deeprest_flags_only_the_attack_day() {
    let fig19 = full("fig19");
    assert_eq!(days(at(&fig19, &["deeprest_flagged_days"])), vec![6]);
    assert_eq!(
        days(at(&fig19, &["pattern_detector_flagged_days"])),
        vec![1, 3, 6]
    );
}

#[test]
fn fig20_deeprest_detects_the_mining_and_the_pattern_detector_misses_its_start() {
    let fig20 = full("fig20");
    assert!(days(at(&fig20, &["deeprest_flagged_days"])).contains(&5));
    assert_eq!(
        days(at(&fig20, &["pattern_detector_flagged_days"])),
        vec![6, 7, 8]
    );
}

#[test]
#[ignore = "Fig. 20 raises one benign event, windows 288-292 (day 3, peak score 0.023 against the miner's 0.163): ROADMAP item 22"]
fn fig20_deeprest_raises_no_benign_false_alarm() {
    let fig20 = full("fig20");
    let mining_day = at(&fig20, &["mining_start_window"]).as_u64().unwrap() / WINDOWS_PER_DAY;
    let flagged = days(at(&fig20, &["deeprest_flagged_days"]));
    assert!(
        flagged.iter().all(|&d| d >= mining_day),
        "benign days flagged: {flagged:?}"
    );
}

#[test]
#[ignore = "Fig. 22's four attributions are nearly the same: /composePost tops every row and /uploadMedia is last, MediaMongoDB memory included: ROADMAP item 20"]
fn fig22_media_store_memory_is_attributed_to_upload_media() {
    let fig22 = full("fig22");
    let media = fig22
        .as_array()
        .expect("one entry per resource")
        .iter()
        .find(|row| at(row, &["resource"]).as_str() == Some("MediaMongoDB/memory"))
        .expect("a MediaMongoDB/memory row");
    let top = &at(media, &["weights"]).as_array().expect("ranked APIs")[0];
    assert_eq!(
        top.as_array().expect("(api, weight)")[0].as_str(),
        Some("/uploadMedia")
    );
}

#[test]
fn table1_every_scenario_is_synthesized_at_least_89_percent_accurately() {
    let rows = settings("table1");
    assert_eq!(rows.len(), 6);
    for row in &rows {
        assert!(num(at(row, &["accuracy_pct"])) >= 89.0, "{row:?}");
    }
}

fn ablation(variant: &str) -> Value {
    settings("ablations")
        .into_iter()
        .find(|row| at(row, &["variant"]).as_str() == Some(variant))
        .unwrap_or_else(|| panic!("no `{variant}` row"))
}

#[test]
fn ablations_removing_the_mask_worsens_every_mape_column() {
    let (full_model, no_mask) = (ablation("full model"), ablation("- API-aware mask"));
    for column in ["same_scale_mape", "composition_shift_mape", "scale_3x_mape"] {
        assert!(
            num(at(&no_mask, &[column])) > num(at(&full_model, &[column])),
            "{column}"
        );
    }
}

#[test]
#[ignore = "the full model's delta = 0.90 interval covers 96.1 % of the in-scale day, 6.1 points over nominal: ROADMAP item 21"]
fn ablations_full_model_coverage_is_within_five_points_of_nominal() {
    let coverage = num(at(&ablation("full model"), &["same_scale_coverage"]));
    assert!(
        (coverage - 0.90).abs() <= 0.05,
        "coverage {:.1} %",
        coverage * 100.0
    );
}
