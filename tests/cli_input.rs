//! `gmt-cli` rejects degenerate scale flags with an error and a non-zero
//! exit instead of clamping them to a tiny address space.

use std::process::{Command, Output};

fn gmt_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gmt-cli"))
        .args(args)
        .output()
        .expect("gmt-cli runs")
}

/// Asserts that `compare --app hotspot` with `flags` fails before
/// simulating anything, naming `complaint` on stderr.
fn assert_rejected(flags: &[&str], complaint: &str) {
    let mut args = vec!["compare", "--app", "hotspot"];
    args.extend_from_slice(flags);
    let out = gmt_cli(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{flags:?} was accepted");
    assert!(
        stderr.contains(complaint),
        "{flags:?}: stderr {stderr:?} lacks {complaint:?}"
    );
    assert!(out.stdout.is_empty(), "{flags:?} ran a comparison");
}

#[test]
fn zero_tier1_is_rejected() {
    // Formerly clamped to 64 pages, so `compare` ran with Tier-1 = 6.
    assert_rejected(&["--t1", "0"], "spans 0 pages");
}

#[test]
fn non_positive_or_non_finite_ratio_is_rejected() {
    for bad in ["0", "-1", "NaN", "inf", "-inf"] {
        assert_rejected(&["--ratio", bad], "--ratio must be finite and positive");
    }
}

#[test]
fn non_positive_or_non_finite_oversubscription_is_rejected() {
    for bad in ["0", "-2", "NaN", "inf"] {
        assert_rejected(&["--os", bad], "--os must be finite and positive");
    }
}

#[test]
fn address_space_below_the_workload_minimum_is_rejected() {
    // 2 × (1 + 4) × 2 = 20 pages.
    assert_rejected(&["--t1", "2"], "spans 20 pages; workloads need at least 64");
}

#[test]
fn smallest_valid_scale_still_runs() {
    // 7 × (1 + 4) × 2 = 70 pages.
    let out = gmt_cli(&["run", "--app", "hotspot", "--system", "bam", "--t1", "7"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("ssd reads"));
}
