//! Command-line contract of `simulate`'s fault-injection flags: the kept
//! spellings run and report their counts, removed spellings exit 2 and
//! name their replacement, and bad intervals are configuration errors
//! rather than panics.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_simulate");

/// Runs a small one-channel simulation with `extra` flags appended.
fn simulate(extra: &[&str]) -> Output {
    Command::new(BIN)
        .args(["--insts", "20000", "--warmup", "0"])
        .args(["--channels", "1", "--llc-mib", "1"])
        .args(extra)
        .env_remove("CROW_SAMPLE")
        .output()
        .expect("spawn simulate")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn vrt_and_drop_faults_run_and_are_counted() {
    let out = simulate(&["--faults", "vrt=20000,drop=10000"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("faults injected: "))
        .unwrap_or_else(|| panic!("no fault counts in:\n{stdout}"));
    let counts: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|t| t.parse().ok())
        .collect();
    assert!(
        counts.len() == 2 && counts.iter().all(|&n| n > 0),
        "want non-zero vrt and drop counts: {line}"
    );
}

#[test]
fn removed_spellings_exit_2_naming_the_replacement() {
    let hammer = "--hammer PATTERN [--hammer-intensity N]";
    for (args, replacement) in [
        (&["--faults", "stress"][..], "--faults vrt=40000,drop=10000"),
        (&["--faults", "hammer=25000"], hammer),
        (&["--faults", "vrt=20000,burst=64"], hammer),
        (&["--fault-policy", "record"], "always fails the run"),
    ] {
        let out = simulate(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains("was removed") && err.contains(replacement),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn bad_fault_and_hammer_flags_are_rejected_without_a_panic() {
    for (spec, field) in [
        ("drop=0", "fault_plan.drop_interval"),
        ("vrt=0", "vrt_interval_cycles"),
    ] {
        let out = simulate(&["--faults", spec]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{spec}: {err}");
        assert!(
            err.contains(&format!("invalid SystemConfig: {field} must be positive")),
            "{spec}: {err}"
        );
    }
    let out = simulate(&["--hammer-intensity", "500000"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("--hammer-intensity needs --hammer"), "{err}");
}
