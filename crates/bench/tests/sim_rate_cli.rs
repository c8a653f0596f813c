//! `sim_rate` refuses arguments it cannot use with the usage line and
//! exit status 2 instead of panicking, and its `--json` record carries
//! the peak-memory field.

use std::process::{Command, Output};

fn sim_rate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sim_rate"))
        .args(args)
        .output()
        .expect("sim_rate runs")
}

#[test]
fn unusable_arguments_exit_with_usage() {
    for args in [
        &["1", "1", "--mesh", "3"][..],
        &["1", "1", "--mesh", "0"],
        &["1", "1", "--mesh", "300"],
        &["1", "1", "--buckets", "1000"],
        &["1", "1", "--buckets", "32"],
        &["1", "1", "--width-log2", "21"],
        &["1", "1", "--width-log2"],
        &["1", "0"],
        &["1", "1", "1"],
        &["--bogus"],
    ] {
        let out = sim_rate(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: sim_rate"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn json_record_reports_peak_rss() {
    let out = sim_rate(&["1", "1", "--buckets", "64", "--width-log2", "0", "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rss = stdout
        .split("\"peak_rss_mb\":")
        .nth(1)
        .and_then(|rest| rest.trim_end().strip_suffix('}'))
        .expect("peak_rss_mb is the record's last field");
    if cfg!(target_os = "linux") {
        let mb: f64 = rss.parse().expect("numeric on Linux");
        assert!(mb > 0.0, "peak RSS {mb} MB");
    }
}
