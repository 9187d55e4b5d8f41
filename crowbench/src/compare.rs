//! `crowbench compare BASE_DIR HEAD_DIR`: per workload and metric, the
//! median and quartiles of each side and a noise-aware verdict.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crow_sim::Json;

use crate::spec::Spec;
use crate::stats::{median, quartiles, verdict};

/// Runs each side needs before a verdict means anything.
const MIN_RUNS: usize = 5;

/// One `--out` result file.
struct RunFile {
    seed: u64,
    doc: Json,
}

fn load_dir(dir: &Path) -> Result<Vec<RunFile>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
            let seed = doc.get("seed").and_then(Json::as_u64).unwrap_or(0);
            Ok(RunFile { seed, doc })
        })
        .collect()
}

/// Values of one workload's metric across a side's files, in file order.
fn values(files: &[RunFile], workload: &str, metric: &str) -> Vec<f64> {
    files
        .iter()
        .filter_map(|f| {
            f.doc
                .get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn summary(v: &[f64]) -> Json {
    let (q1, q3) = quartiles(v);
    Json::obj(vec![
        ("median", Json::f64(median(v))),
        ("q1", Json::f64(q1)),
        ("q3", Json::f64(q3)),
        ("n", Json::u64(v.len() as u64)),
    ])
}

/// The digest and counters of every (seed, workload) on one side.
fn identities(files: &[RunFile]) -> BTreeMap<(u64, String), String> {
    let mut out = BTreeMap::new();
    for f in files {
        let Some(Json::Obj(ws)) = f.doc.get("workloads") else {
            continue;
        };
        for (w, doc) in ws {
            let id = format!(
                "{} {}",
                doc.get("digest").and_then(Json::as_str).unwrap_or("-"),
                doc.get("counters").map_or_else(String::new, Json::render)
            );
            out.insert((f.seed, w.clone()), id);
        }
    }
    out
}

pub fn main(args: &[String]) -> ExitCode {
    let (base_dir, head_dir, summary_path) = match args {
        [b, h] => (b, h, None),
        [b, h, flag, s] if flag == "--summary" => (b, h, Some(PathBuf::from(s))),
        _ => return crate::usage(),
    };
    let spec = Spec::load();
    let (base, head) = match (load_dir(Path::new(base_dir)), load_dir(Path::new(head_dir))) {
        (Ok(b), Ok(h)) => (b, h),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("crowbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    if base.len() < MIN_RUNS || head.len() < MIN_RUNS {
        eprintln!(
            "crowbench compare: need at least {MIN_RUNS} result files per side (have {} and {})",
            base.len(),
            head.len()
        );
        return ExitCode::from(2);
    }
    println!(
        "{:<16} {:<28} {:>12} {:>25} {:>12} {:>25} {:>8}  verdict",
        "workload", "metric", "base p50", "base [q1, q3]", "head p50", "head [q1, q3]", "delta"
    );
    let mut sides = (Vec::new(), Vec::new(), Vec::new());
    let mut shown = 0;
    for w in &spec.workloads {
        let (mut bw, mut hw, mut vw) = (Vec::new(), Vec::new(), Vec::new());
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let (b, h) = (values(&base, w, &m.name), values(&head, w, &m.name));
            if b.is_empty() || h.is_empty() {
                continue;
            }
            let v = verdict(&b, &h, m.better, m.bound);
            let (mb, mh) = (median(&b), median(&h));
            let (bq, hq) = (quartiles(&b), quartiles(&h));
            let delta = if mb == 0.0 {
                0.0
            } else {
                (mh / mb - 1.0) * 100.0
            };
            println!(
                "{w:<16} {:<28} {mb:>12.4} [{:>11.4}, {:>11.4}] {mh:>12.4} [{:>11.4}, {:>11.4}] {delta:>7.2}%  {}",
                m.name,
                bq.0,
                bq.1,
                hq.0,
                hq.1,
                v.as_str()
            );
            shown += 1;
            bw.push((m.name.clone(), summary(&b)));
            hw.push((m.name.clone(), summary(&h)));
            vw.push((m.name.clone(), Json::str(v.as_str())));
        }
        if !bw.is_empty() {
            sides.0.push((w.clone(), Json::Obj(bw)));
            sides.1.push((w.clone(), Json::Obj(hw)));
            sides.2.push((w.clone(), Json::Obj(vw)));
        }
    }
    if shown == 0 {
        eprintln!("crowbench compare: no metric appears on both sides");
        return ExitCode::from(2);
    }
    // Runs of the same seed must simulate exactly the same thing.
    let (ib, ih) = (identities(&base), identities(&head));
    let mut mismatches = 0;
    for (key, id) in &ib {
        if let Some(other) = ih.get(key) {
            if other != id {
                mismatches += 1;
                println!("seed {} {}: digest or counters differ", key.0, key.1);
            }
        }
    }
    println!(
        "identical digests and counters for every seed run on both sides: {}",
        mismatches == 0
    );
    if let Some(path) = summary_path {
        let doc = Json::obj(vec![
            ("base", Json::Obj(sides.0)),
            ("head", Json::Obj(sides.1)),
            ("verdicts", Json::Obj(sides.2)),
            ("identical_digests", Json::Bool(mismatches == 0)),
        ]);
        if let Err(e) = std::fs::write(&path, doc.pretty()) {
            eprintln!("crowbench compare: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
