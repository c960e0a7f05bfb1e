//! The text `reproduce` prints is a golden: `reproduce all` and
//! `reproduce fleet` must print the bytes checked in under
//! `tests/golden/`.
//!
//! The score goldens (`tests/golden/v1_0_*.json`) lock every cell at
//! 0 ULPs, but not the rendered tables, insights, ablations, extensions
//! or the fleet report. This test locks those, byte for byte, by running
//! the binary itself. Both outputs are byte-identical across worker
//! counts and across debug and release builds, so the test holds in any
//! profile. `reproduce tuning` stays out: `v1_0_tuning.json` already locks
//! its cells. After an intentional change to a printed artifact,
//! regenerate the files with:
//!
//! ```sh
//! BLESS=1 cargo test -p mlperf-bench --test reproduce_golden
//! ```

use std::process::Command;

/// Golden stdout of `reproduce all`.
const ALL_GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/reproduce_all.txt");

/// Golden stdout of `reproduce fleet`.
const FLEET_GOLDEN: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/reproduce_fleet.txt");

/// Lines of context shown for the first difference.
const DIFF_LINES: usize = 5;

/// Runs `reproduce <artifact>` and returns its stdout.
fn reproduce(artifact: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg(artifact)
        .output()
        .expect("reproduce runs");
    assert!(out.status.success(), "reproduce {artifact} failed:\n{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("reproduce prints UTF-8")
}

/// The first differing lines of `expected` and `actual`, numbered from 1,
/// or `None` when the two are equal.
fn first_difference(expected: &str, actual: &str) -> Option<String> {
    if expected == actual {
        return None;
    }
    let (exp, act): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), actual.lines().collect());
    let first = (0..exp.len().max(act.len()))
        .find(|&i| exp.get(i) != act.get(i))
        // Equal lines but unequal text: only the final newline differs.
        .unwrap_or(exp.len());
    let mut text = format!(
        "first difference at line {} ({} golden lines, {} printed):\n",
        first + 1,
        exp.len(),
        act.len()
    );
    for i in first..(first + DIFF_LINES).min(exp.len().max(act.len())) {
        let (e, a) = (exp.get(i), act.get(i));
        if e == a {
            continue;
        }
        text += &format!("  line {}:\n    golden:  {:?}\n    printed: {:?}\n", i + 1, e, a);
    }
    Some(text)
}

/// Compares `reproduce <artifact>` with its golden file, or rewrites the
/// file under `BLESS=1`.
fn check(artifact: &str, golden: &str) {
    let actual = reproduce(artifact);
    if std::env::var("BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(golden, &actual).expect("write golden");
        eprintln!("blessed {} bytes into {golden}", actual.len());
        return;
    }
    let expected = std::fs::read_to_string(golden).unwrap_or_else(|e| {
        panic!("no golden at {golden} ({e}); generate with BLESS=1 cargo test -p mlperf-bench --test reproduce_golden")
    });
    if let Some(diff) = first_difference(&expected, &actual) {
        panic!(
            "`reproduce {artifact}` drifted from {golden} (BLESS=1 to accept intentional changes); {diff}"
        );
    }
}

#[test]
fn reproduce_all_matches_golden() {
    check("all", ALL_GOLDEN);
}

#[test]
fn reproduce_fleet_matches_golden() {
    check("fleet", FLEET_GOLDEN);
}
