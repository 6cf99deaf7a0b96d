//! One workload's result: the measured values, the ops tally, and the
//! metadata needed to compare this record with the next one.

use std::time::{SystemTime, UNIX_EPOCH};

use crate::check::Ops;
use crate::json::Value;
use crate::metrics::{reported, Kind, MetricDef};
use crate::stats::Summary;
use crate::workload::{Sizing, Workload, FLEET_SCALE};

#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: usize,
}

pub struct Report {
    pub workload: Workload,
    pub kind: Kind,
    pub seed: u64,
    pub sizing: Sizing,
    pub metrics: Vec<Measured>,
    /// Per-run host milliseconds, by condition (or by round).
    pub timings: Vec<(String, Summary)>,
    pub ops: Ops,
    /// Digest of the simulated outputs; a speed-only change leaves it alone.
    pub digest: u64,
    /// Timed rounds (end to end) or traced runs (per layer).
    pub rounds: u32,
    /// What this workload is registered to report in this mode.
    defs: Vec<MetricDef>,
    start_unix_s: u64,
}

impl Report {
    pub fn new(workload: Workload, kind: Kind, seed: u64, sizing: Sizing) -> Report {
        Report {
            workload,
            kind,
            seed,
            sizing,
            metrics: Vec::new(),
            timings: Vec::new(),
            ops: Ops::default(),
            digest: 0,
            rounds: 0,
            defs: reported(workload, kind),
            start_unix_s: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
        }
    }

    pub fn push(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics.push(Measured {
            name: name.into(),
            value,
            samples,
        });
    }

    /// Summarise the host seconds of a condition's (or a round's) runs.
    pub fn timing(&mut self, label: &str, wall_s: &[f64]) {
        let ms: Vec<f64> = wall_s.iter().map(|s| s * 1e3).collect();
        if let Some(s) = Summary::of(&ms) {
            self.timings.push((label.into(), s));
        }
    }

    fn unit(&self, name: &str) -> &'static str {
        self.defs
            .iter()
            .find(|d| d.name == name)
            .map_or("?", |d| d.unit)
    }

    /// The set of names measured must equal the set this workload is
    /// registered to report in this mode, each once and finite; an
    /// end-to-end value of 0 means the measurement did not happen.
    pub fn validate(&mut self) {
        let mut problems = Vec::new();
        for d in &self.defs {
            match self.metrics.iter().filter(|m| m.name == d.name).count() {
                1 => {}
                n => problems.push(format!("{} reported {n} times", d.name)),
            }
        }
        for m in &self.metrics {
            if !self.defs.iter().any(|d| d.name == m.name) {
                problems.push(format!("{} is not registered for this workload", m.name));
            }
            if !m.value.is_finite() || (self.kind == Kind::EndToEnd && m.value == 0.0) {
                problems.push(format!("{} = {}", m.name, m.value));
            }
        }
        for p in problems {
            self.ops.fail("metric set", p);
        }
    }

    /// `workload  name  value  unit` for every metric, then the per-run
    /// timings and the tally.
    pub fn print_table(&self) {
        let w = self.workload.name();
        for m in &self.metrics {
            let unit = self.unit(&m.name);
            println!("{w:<12} {:<52} {:>16.6} {unit}", m.name, m.value);
        }
        for (label, s) in &self.timings {
            println!(
                "{w:<12} run_ms[{label}] median {:.3} min {:.3} max {:.3} count {}",
                s.median, s.min, s.max, s.count
            );
        }
        println!(
            "{w:<12} ops {} ops_failed {} digest {:016x}",
            self.ops.attempted, self.ops.failed, self.digest
        );
    }

    /// The full record: metrics with unit and sample count, plus metadata.
    pub fn to_json(&self) -> Value {
        let env = |key: &str| Value::str(std::env::var(key).unwrap_or_else(|_| "unknown".into()));
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let fleet = self.workload == Workload::FleetShort;
        let meta = Value::obj([
            ("git_rev", env("BENCH_GIT_REV")),
            ("rustc", env("BENCH_RUSTC")),
            ("nproc", Value::Num(nproc as f64)),
            ("threads", Value::Num(self.workload.threads() as f64)),
            ("seed", Value::Num(self.seed as f64)),
            (
                "timeline_scale",
                Value::Num(if fleet {
                    FLEET_SCALE
                } else {
                    self.sizing.timeline_scale()
                }),
            ),
            ("rounds", Value::Num(f64::from(self.rounds))),
            (
                "sessions_per_round",
                if fleet {
                    Value::Num(f64::from(self.sizing.fleet_sessions()))
                } else {
                    Value::Null
                },
            ),
            ("seconds", Value::Num(self.sizing.seconds)),
            ("smoke", Value::Bool(self.sizing.smoke)),
            ("profile", Value::str("release lto=fat codegen-units=1")),
            (
                "allocator",
                Value::str(match self.kind {
                    Kind::EndToEnd => "system",
                    Kind::Layer => "counting",
                }),
            ),
            ("start_unix_s", Value::Num(self.start_unix_s as f64)),
        ]);
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                Value::obj([
                    ("value", Value::Num(m.value)),
                    ("unit", Value::str(self.unit(&m.name))),
                    ("samples", Value::Num(m.samples as f64)),
                ]),
            )
        });
        let timings = self.timings.iter().map(|(label, s)| {
            (
                label.clone(),
                Value::obj([
                    ("median_ms", Value::Num(s.median)),
                    ("min_ms", Value::Num(s.min)),
                    ("max_ms", Value::Num(s.max)),
                    ("count", Value::Num(s.count as f64)),
                ]),
            )
        });
        Value::obj([
            ("workload", Value::str(self.workload.name())),
            (
                "mode",
                Value::str(match self.kind {
                    Kind::EndToEnd => "end_to_end",
                    Kind::Layer => "per_layer",
                }),
            ),
            ("meta", meta),
            ("ops", Value::Num(self.ops.attempted as f64)),
            ("ops_failed", Value::Num(self.ops.failed as f64)),
            (
                "failures",
                Value::Arr(self.ops.failures.iter().map(Value::str).collect()),
            ),
            ("digest", Value::str(format!("{:016x}", self.digest))),
            ("metrics", Value::obj(metrics)),
            ("run_ms", Value::obj(timings)),
        ])
    }

    /// The driver's line: `correct`, `attempted`, `failed`, and the metrics
    /// `BENCHMARK.json` declares for this mode, nothing else.
    pub fn driver_line(&self) -> String {
        let metrics = self.metrics.iter().filter_map(|m| {
            let d = self
                .defs
                .iter()
                .find(|d| d.name == m.name && d.only.is_none())?;
            Some((
                m.name.clone(),
                Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(d.unit))]),
            ))
        });
        Value::obj([
            ("correct", Value::Bool(self.ops.correct())),
            ("attempted", Value::Num(self.ops.attempted.max(1) as f64)),
            ("failed", Value::Num(self.ops.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sizing() -> Sizing {
        Sizing {
            smoke: true,
            seconds: 0.0,
        }
    }

    fn full_e2e(w: Workload) -> Report {
        let mut r = Report::new(w, Kind::EndToEnd, 3, sizing());
        for d in reported(w, Kind::EndToEnd) {
            r.push(&d.name, 1.5, 4);
        }
        r.ops.attempted = 9;
        r
    }

    #[test]
    fn a_complete_metric_set_validates_and_a_wrong_one_fails() {
        let mut ok = full_e2e(Workload::ReproGrid);
        ok.validate();
        assert!(ok.ops.correct(), "{:?}", ok.ops.failures);

        let mut missing = full_e2e(Workload::Solo);
        missing.metrics.pop();
        missing.validate();
        assert!(missing.ops.failures[0].contains("reported 0 times"));

        let mut foreign = full_e2e(Workload::Solo);
        foreign.push("claims_pass_frac", 0.875, 1);
        foreign.validate();
        assert!(foreign.ops.failures[0].contains("not registered"));

        let mut twice = full_e2e(Workload::Solo);
        twice.push("setup_s", 1.0, 1);
        twice.validate();
        assert!(twice.ops.failures[0].contains("reported 2 times"));

        let mut zero = full_e2e(Workload::Solo);
        zero.metrics[0].value = 0.0;
        zero.validate();
        assert!(!zero.ops.correct());
    }

    #[test]
    fn driver_line_holds_only_what_every_workload_reports() {
        let line = full_e2e(Workload::ReproGrid).driver_line();
        let v = parse(&line).unwrap();
        let keys: Vec<_> = v.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap();
        assert!(metrics.get("sim_s_per_wall_s").is_some());
        assert!(metrics.get("claims_pass_frac").is_none());
        assert_eq!(metrics.as_obj().unwrap().len(), 4);
        assert_eq!(v.get("attempted").unwrap().as_f64(), Some(9.0));
    }

    #[test]
    fn record_round_trips_with_units_samples_and_metadata() {
        let mut r = full_e2e(Workload::FleetShort);
        r.digest = 0xabc;
        r.timing("round", &[0.25, 0.75, 0.5]);
        let v = parse(&r.to_json().render()).unwrap();
        assert_eq!(v, r.to_json());
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(m.get("samples").unwrap().as_f64(), Some(4.0));
        let meta = v.get("meta").unwrap();
        for key in [
            "git_rev",
            "rustc",
            "nproc",
            "threads",
            "seed",
            "start_unix_s",
        ] {
            assert!(meta.get(key).is_some(), "meta lacks {key}");
        }
        assert_eq!(
            meta.get("timeline_scale").unwrap().as_f64(),
            Some(FLEET_SCALE)
        );
        assert_eq!(v.get("digest").unwrap().as_str(), Some("0000000000000abc"));
        assert_eq!(
            v.get("run_ms")
                .unwrap()
                .get("round")
                .unwrap()
                .get("median_ms")
                .unwrap()
                .as_f64(),
            Some(500.0)
        );
    }
}
