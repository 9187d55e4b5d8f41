//! Command-line contract of `simulate`: a plain run and a journaled one
//! take the same path and print the same report, `--resume` restores
//! it without simulating, the fault-injection flags run and report
//! their counts, removed spellings exit 2 and name their replacement,
//! and bad configurations are errors rather than panics.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_simulate");

/// Runs a small one-channel simulation with `extra` flags appended,
/// journaling any campaign under `dir`.
fn simulate_in(dir: &Path, extra: &[&str]) -> Output {
    Command::new(BIN)
        .args(["--insts", "20000", "--warmup", "0"])
        .args(["--channels", "1", "--llc-mib", "1"])
        .args(extra)
        .env_remove("CROW_SAMPLE")
        .env("CROW_CAMPAIGN_DIR", dir)
        .output()
        .expect("spawn simulate")
}

/// A scratch journal directory for one test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crow-simulate-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn simulate(extra: &[&str]) -> Output {
    simulate_in(&temp_dir("unjournaled"), extra)
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Stdout without the wall-clock line.
fn report(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| !l.starts_with("simulated "))
        .map(str::to_string)
        .collect()
}

#[test]
fn plain_journaled_and_resumed_runs_print_one_report() {
    let dir = temp_dir("resume");
    let plain = simulate_in(&dir, &["--oracle"]);
    assert!(plain.status.success(), "{}", stderr(&plain));
    assert!(!dir.exists(), "a plain run journals nothing");
    assert_eq!(report(&plain)[0], "data-integrity oracle: clean");
    let journaled = simulate_in(&dir, &["--oracle", "--retries", "0"]);
    assert!(journaled.status.success(), "{}", stderr(&journaled));
    assert_eq!(report(&plain), report(&journaled));
    let journal = dir.join("simulate.jsonl");
    let records = || std::fs::read_to_string(&journal).unwrap().lines().count();
    assert_eq!(records(), 1);

    // A restored report was checked when it ran, so only the banner
    // replaces the oracle line.
    let resumed = simulate_in(&dir, &["--oracle", "--resume"]);
    assert!(resumed.status.success(), "{}", stderr(&resumed));
    let mut want = report(&plain);
    want[0] =
        "[restored from campaign journal; wall-clock figures are from the original run]".into();
    assert_eq!(report(&resumed), want);
    assert_eq!(records(), 1, "the restored job did not run again");
    std::fs::remove_dir_all(&dir).ok();
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
fn bad_configurations_are_rejected_without_a_panic() {
    for (args, want) in [
        (
            &["--faults", "drop=0"][..],
            "invalid SystemConfig: fault_plan.drop_interval must be positive",
        ),
        (
            &["--faults", "vrt=0"],
            "invalid SystemConfig: vrt_interval_cycles must be positive",
        ),
        (&["--mechanism", "salp-7"], "invalid DramConfig"),
        (&["--llc-mib", "3"], "invalid CpuConfig"),
        (&["--channels", "3"], "channels = 3: must be a power of two"),
        (&["--channels", "0"], "channels = 0: must be a power of two"),
        (
            &["--mechanism", "ideal", "--oracle"],
            "oracle cannot check Ideal CROW-cache",
        ),
        (
            &["--mechanism", "tldram-8", "--oracle"],
            "oracle cannot check TL-DRAM-8",
        ),
    ] {
        let out = simulate(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(want), "{args:?}: {err}");
    }
    for (args, want) in [
        (
            &["--hammer-intensity", "500000"][..],
            "--hammer-intensity needs --hammer",
        ),
        (&["--timeout", "inf"], "usage: simulate"),
        (
            &["--density", "7"],
            "\"density\" must be 8, 16, 32, or 64 (Gbit)",
        ),
    ] {
        let out = simulate(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(want), "{args:?}: {err}");
    }
}
