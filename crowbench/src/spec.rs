//! The benchmark's contract, read from the repository's `BENCHMARK.json`
//! at build time: workload names and every metric's unit, direction and
//! regression bound.

use crow_sim::Json;

use crate::stats::Better;

const SPEC: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the base median by which the metric may worsen; `None`
    /// for per-layer metrics.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Self {
        Self::parse(SPEC).expect("BENCHMARK.json is well formed")
    }

    fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("{key} missing"))?
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
                    Ok(MetricSpec {
                        name: s("name").ok_or("metric without name")?,
                        unit: s("unit").ok_or("metric without unit")?,
                        better: s("better")
                            .as_deref()
                            .and_then(Better::parse)
                            .ok_or("metric without direction")?,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            workloads: doc
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("workloads missing")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("run_seconds missing")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metrics a run reports: per-layer ones when traced.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    pub fn find(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_names_the_four_workloads_and_a_setup_metric() {
        let s = Spec::load();
        assert_eq!(
            s.workloads,
            [
                "single-membound",
                "mix4-full",
                "mix4-sampled",
                "serve-mixed"
            ]
        );
        let setup = s.find("setup_s").expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let widest = s
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
