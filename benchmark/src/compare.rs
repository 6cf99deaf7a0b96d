//! Reading result files back: `bench compare A.json B.json` judges every
//! end-to-end metric of B against A by the bound fixed in the registry, and
//! `bench check BENCHMARK.json RESULTS.json` verifies that what was printed
//! is what was declared.

use std::collections::BTreeMap;

use crate::json::{parse, Value};
use crate::metrics::{registry, reported, Better, Kind, MetricDef};
use crate::stats::{median, spread};
use crate::workload::Workload;

/// One record of a results file, as far as comparing needs it.
#[derive(Clone, Debug, PartialEq)]
pub struct Rec {
    pub workload: String,
    pub mode: String,
    pub seed: u64,
    pub ops: u64,
    pub ops_failed: u64,
    pub digest: String,
    pub metrics: Vec<(String, f64)>,
}

/// A results file holds `{"records": [...]}` (what `run.sh` writes, any
/// number of passes) or one bare record (what `--out` writes).
pub fn records(doc: &Value) -> Result<Vec<Rec>, String> {
    let items = match doc.get("records") {
        Some(list) => list.as_arr().ok_or("\"records\" is not a list")?,
        None => std::slice::from_ref(doc),
    };
    items
        .iter()
        .map(|r| {
            let text = |key: &str| {
                r.get(key)
                    .and_then(Value::as_str)
                    .map(String::from)
                    .ok_or(format!("record lacks {key}"))
            };
            let num = |v: Option<&Value>, key: &str| {
                v.and_then(Value::as_f64)
                    .ok_or(format!("record lacks {key}"))
            };
            let metrics = r
                .get("metrics")
                .and_then(Value::as_obj)
                .ok_or("record lacks metrics")?
                .iter()
                .map(|(name, m)| Ok((name.clone(), num(m.get("value"), name)?)))
                .collect::<Result<_, String>>()?;
            Ok(Rec {
                workload: text("workload")?,
                mode: text("mode")?,
                seed: num(r.get("meta").and_then(|m| m.get("seed")), "meta.seed")? as u64,
                ops: num(r.get("ops"), "ops")? as u64,
                ops_failed: num(r.get("ops_failed"), "ops_failed")? as u64,
                digest: text("digest")?,
                metrics,
            })
        })
        .collect()
}

fn load(path: &str) -> Result<Vec<Rec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    records(&parse(&text).map_err(|e| format!("{path}: {e}"))?).map_err(|e| format!("{path}: {e}"))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound, no better than it either.
    Within,
    Worse,
    Better,
    /// The runs of one side spread wider than the bound, and the two sides
    /// overlap: the data cannot say.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Judgement {
    pub verdict: Verdict,
    /// B's median against A's as a share of A's; positive is worse.
    pub worse_by: f64,
    /// The wider of the two sides' interquartile spreads; 0 with one run a
    /// side, where there is nothing to measure it from.
    pub spread: f64,
}

/// Judge B's runs against A's for a metric with regression bound `bound`.
/// A bound of 0 marks an exact metric: any worsening is a regression.
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Option<Judgement> {
    let (med_a, med_b) = (median(a)?, median(b)?);
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (med_b - med_a) / med_a.abs();
    let spread = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    // Every run of one side on the same side of every run of the other.
    let all = |pred: fn(f64) -> bool| a.iter().all(|&x| b.iter().all(|&y| pred(sign * (y - x))));
    let verdict = if bound == 0.0 {
        match worse_by {
            w if w > 0.0 => Verdict::Worse,
            w if w < 0.0 => Verdict::Better,
            _ => Verdict::Within,
        }
    } else if spread > bound {
        if all(|d| d < 0.0) {
            Verdict::Better
        } else if all(|d| d > 0.0) && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    Some(Judgement {
        verdict,
        worse_by,
        spread,
    })
}

type Key = (String, String);

fn group(recs: &[Rec]) -> BTreeMap<Key, Vec<&Rec>> {
    let mut map: BTreeMap<Key, Vec<&Rec>> = BTreeMap::new();
    for r in recs {
        map.entry((r.workload.clone(), r.mode.clone()))
            .or_default()
            .push(r);
    }
    map
}

fn values(recs: &[&Rec], name: &str) -> Vec<f64> {
    recs.iter()
        .flat_map(|r| r.metrics.iter().filter(|(n, _)| n == name).map(|(_, v)| *v))
        .collect()
}

/// What a comparison found, beyond the lines it printed.
#[derive(Debug, Default, PartialEq)]
pub struct Outcome {
    pub worse: usize,
    /// End-to-end pairings that are not `within`.
    pub not_within: usize,
    pub digest_mismatches: usize,
    pub exact_mismatches: usize,
    pub failed_ops: u64,
}

impl Outcome {
    /// A change may not make anything worse; two sets of the same code must
    /// also agree on every digest and exact counter, fail no op, and leave
    /// every end-to-end metric within its bound.
    pub fn exit_code(&self, same_code: bool) -> i32 {
        let strict = self.not_within + self.digest_mismatches + self.exact_mismatches;
        i32::from(self.worse > 0 || (same_code && (strict > 0 || self.failed_ops > 0)))
    }
}

pub fn compare(a: &[Rec], b: &[Rec], defs: &[MetricDef]) -> (Vec<String>, Outcome) {
    let (ga, gb) = (group(a), group(b));
    let mut lines = Vec::new();
    let mut out = Outcome::default();
    for (key, ra) in &ga {
        let Some(rb) = gb.get(key) else {
            lines.push(format!("{} {}: only in A", key.0, key.1));
            continue;
        };
        let (failed, ops) = ra
            .iter()
            .chain(rb)
            .fold((0, 0), |(f, o), r| (f + r.ops_failed, o + r.ops));
        out.failed_ops += failed;
        let share = |rs: &[&Rec]| {
            let (f, o) = rs
                .iter()
                .fold((0, 0), |(f, o), r| (f + r.ops_failed, o + r.ops));
            f as f64 / o.max(1) as f64
        };
        lines.push(format!(
            "{:<12} {:<10} failed-op share A {:.4} B {:.4} ({failed} of {ops} ops)",
            key.0,
            key.1,
            share(ra),
            share(rb)
        ));

        // Runs of one seed simulate the same thing on both sides.
        for x in ra {
            for y in rb.iter().filter(|y| y.seed == x.seed) {
                if x.digest != y.digest {
                    out.digest_mismatches += 1;
                    lines.push(format!(
                        "{:<12} {:<10} seed {} digest {} vs {}",
                        key.0, key.1, x.seed, x.digest, y.digest
                    ));
                }
                for d in defs.iter().filter(|d| d.exact && d.kind == Kind::Layer) {
                    let (vx, vy) = (values(&[*x], &d.name), values(&[*y], &d.name));
                    if vx != vy {
                        out.exact_mismatches += 1;
                        lines.push(format!(
                            "{:<12} {:<52} seed {} exact count {vx:?} vs {vy:?}",
                            key.0, d.name, x.seed
                        ));
                    }
                }
            }
        }

        for d in defs {
            let (va, vb) = (values(ra, &d.name), values(rb, &d.name));
            let Some(j) = judge(d.better, d.bound.unwrap_or(f64::INFINITY), &va, &vb) else {
                continue;
            };
            let verdict = match d.bound {
                Some(_) => {
                    out.worse += usize::from(j.verdict == Verdict::Worse);
                    out.not_within += usize::from(j.verdict != Verdict::Within);
                    j.verdict.label()
                }
                // Layers have no bound: the delta is shown, not judged.
                None => "-",
            };
            lines.push(format!(
                "{:<12} {:<52} A {:>14.4} B {:>14.4} worse by {:>+8.2}% bound {:>5} spread {:>6.2}% n {}/{} {verdict}",
                key.0,
                d.name,
                median(&va).expect("judged"),
                median(&vb).expect("judged"),
                j.worse_by * 100.0,
                d.bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
                j.spread * 100.0,
                va.len(),
                vb.len(),
            ));
        }
    }
    for key in gb.keys().filter(|k| !ga.contains_key(*k)) {
        lines.push(format!("{} {}: only in B", key.0, key.1));
    }
    (lines, out)
}

pub fn compare_main(argv: &[String]) -> i32 {
    let same_code = argv.first().is_some_and(|a| a == "--same-code");
    let files = &argv[usize::from(same_code)..];
    let [a, b] = files else {
        eprintln!("usage: bench compare [--same-code] A.json B.json");
        return 2;
    };
    match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => {
            let (lines, out) = compare(&ra, &rb, &registry());
            for l in lines {
                println!("{l}");
            }
            println!(
                "worse {} not-within {} digest-mismatches {} exact-mismatches {} failed-ops {}",
                out.worse,
                out.not_within,
                out.digest_mismatches,
                out.exact_mismatches,
                out.failed_ops
            );
            out.exit_code(same_code)
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            2
        }
    }
}

/// The names each record carries must be the names its workload is
/// registered to report, each once, and must include everything
/// `BENCHMARK.json` declares for its mode; and every workload must be
/// there in both modes.
pub fn check(benchmark: &Value, recs: &[Rec]) -> Vec<String> {
    let mut problems = Vec::new();
    let declared = |key: &str| -> Vec<String> {
        benchmark
            .get(key)
            .and_then(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| m.get("name").and_then(Value::as_str).map(String::from))
            .collect()
    };
    for w in Workload::ALL {
        // A record's mode is spelled like BENCHMARK.json's list of that kind.
        for (mode, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::Layer)] {
            let mine: Vec<&Rec> = recs
                .iter()
                .filter(|r| r.workload == w.name() && r.mode == mode)
                .collect();
            if mine.is_empty() {
                problems.push(format!("{} {mode}: no record", w.name()));
            }
            let registered: Vec<String> = reported(w, kind).into_iter().map(|d| d.name).collect();
            for r in mine {
                let mut printed: Vec<&String> = r.metrics.iter().map(|(n, _)| n).collect();
                let mut expected: Vec<&String> = registered.iter().collect();
                printed.sort();
                expected.sort();
                if printed != expected {
                    problems.push(format!(
                        "{} {mode}: printed {printed:?}, registered {expected:?}",
                        w.name()
                    ));
                }
                for name in declared(mode) {
                    if !printed.contains(&&name) {
                        problems.push(format!("{} {mode}: declared {name} not printed", w.name()));
                    }
                }
            }
        }
    }
    problems
}

pub fn check_main(argv: &[String]) -> i32 {
    let [benchmark, results] = argv else {
        eprintln!("usage: bench check BENCHMARK.json RESULTS.json");
        return 2;
    };
    let doc = std::fs::read_to_string(benchmark)
        .map_err(|e| format!("{benchmark}: {e}"))
        .and_then(|t| parse(&t).map_err(|e| format!("{benchmark}: {e}")));
    match (doc, load(results)) {
        (Ok(doc), Ok(recs)) => {
            let problems = check(&doc, &recs);
            for p in &problems {
                eprintln!("check: {p}");
            }
            if problems.is_empty() {
                println!("check ok: {} records print what is declared", recs.len());
            }
            i32::from(!problems.is_empty())
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIGHER: Better = Better::Higher;
    const LOWER: Better = Better::Lower;

    fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
        judge(better, bound, a, b).unwrap().verdict
    }

    #[test]
    fn a_drop_within_the_bound_is_within_and_beyond_it_is_worse() {
        let a = [1000.0, 1004.0, 998.0];
        assert_eq!(
            verdict(HIGHER, 0.08, &a, &[960.0, 955.0, 962.0]),
            Verdict::Within
        );
        assert_eq!(
            verdict(HIGHER, 0.08, &a, &[900.0, 905.0, 899.0]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(HIGHER, 0.08, &a, &[1100.0, 1105.0, 1099.0]),
            Verdict::Better
        );
        // Lower is better: the same numbers read the other way round.
        assert_eq!(
            verdict(LOWER, 0.08, &a, &[900.0, 905.0, 899.0]),
            Verdict::Better
        );
        assert_eq!(
            verdict(LOWER, 0.08, &a, &[1100.0, 1105.0, 1099.0]),
            Verdict::Worse
        );
        let j = judge(HIGHER, 0.08, &a, &[900.0, 905.0, 899.0]).unwrap();
        assert!((j.worse_by - 0.1).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_sides_do_not_overlap() {
        let noisy = [1000.0, 1200.0, 800.0, 1100.0];
        // Overlapping: the medians differ by 15 %, the data cannot say.
        assert_eq!(
            verdict(HIGHER, 0.05, &noisy, &[850.0, 1020.0, 700.0, 900.0]),
            Verdict::Unresolved
        );
        // Every run of B reads better than every run of A.
        assert_eq!(
            verdict(HIGHER, 0.05, &noisy, &[1300.0, 1500.0, 1250.0, 1400.0]),
            Verdict::Better
        );
        // Every run of B reads worse than every run of A, by more than the bound.
        assert_eq!(
            verdict(HIGHER, 0.05, &noisy, &[600.0, 700.0, 500.0, 650.0]),
            Verdict::Worse
        );
    }

    #[test]
    fn an_exact_metric_tolerates_no_worsening() {
        assert_eq!(verdict(HIGHER, 0.0, &[0.875], &[0.875]), Verdict::Within);
        assert_eq!(verdict(HIGHER, 0.0, &[0.875], &[0.8125]), Verdict::Worse);
        assert_eq!(verdict(HIGHER, 0.0, &[0.875], &[0.9375]), Verdict::Better);
    }

    #[test]
    fn one_run_a_side_is_judged_on_the_bound_alone() {
        let j = judge(LOWER, 0.1, &[2.0], &[2.1]).unwrap();
        assert_eq!((j.verdict, j.spread), (Verdict::Within, 0.0));
        assert!(judge(LOWER, 0.1, &[], &[2.1]).is_none());
    }

    fn rec(workload: &str, seed: u64, digest: &str, metrics: &[(&str, f64)]) -> Rec {
        Rec {
            workload: workload.into(),
            mode: "end_to_end".into(),
            seed,
            ops: 30,
            ops_failed: 0,
            digest: digest.into(),
            metrics: metrics.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn compare_counts_regressions_digest_changes_and_failed_ops() {
        let defs = registry();
        let a = [
            rec(
                "solo",
                0,
                "aa",
                &[("sim_s_per_wall_s", 1240.0), ("setup_s", 0.17)],
            ),
            rec(
                "solo",
                0,
                "aa",
                &[("sim_s_per_wall_s", 1236.0), ("setup_s", 0.18)],
            ),
        ];
        let mut b = a.clone();
        let (_, same) = compare(&a, &b, &defs);
        assert_eq!(same, Outcome::default());
        assert_eq!(same.exit_code(true), 0);

        b[0].metrics[0].1 = 800.0;
        b[1].metrics[0].1 = 804.0;
        b[1].digest = "bb".into();
        b[1].ops_failed = 3;
        let (lines, out) = compare(&a, &b, &defs);
        assert_eq!((out.worse, out.not_within, out.failed_ops), (1, 1, 3));
        // a[0] and a[1] each meet b[1] at seed 0.
        assert_eq!(out.digest_mismatches, 2);
        assert_eq!(out.exit_code(false), 1);
        assert!(lines
            .iter()
            .any(|l| l.contains("sim_s_per_wall_s") && l.ends_with("worse")));
        assert!(lines
            .iter()
            .any(|l| l.contains("setup_s") && l.ends_with("within")));
    }

    #[test]
    fn results_files_parse_as_a_list_or_a_bare_record() {
        let one = r#"{"workload":"solo","mode":"end_to_end","meta":{"seed":4},"ops":9,"ops_failed":1,"digest":"0f","metrics":{"setup_s":{"value":0.5,"unit":"s","samples":3}}}"#;
        let bare = records(&parse(one).unwrap()).unwrap();
        assert_eq!(bare.len(), 1);
        assert_eq!((bare[0].seed, bare[0].ops, bare[0].ops_failed), (4, 9, 1));
        assert_eq!(bare[0].metrics, [("setup_s".to_string(), 0.5)]);
        let list = format!("{{\"records\":[{one},{one}]}}");
        assert_eq!(records(&parse(&list).unwrap()).unwrap().len(), 2);
        assert!(records(&parse("{\"records\":[{}]}").unwrap()).is_err());
    }

    #[test]
    fn check_wants_every_workload_in_both_modes_with_the_registered_names() {
        let benchmark = parse(include_str!("../../BENCHMARK.json")).unwrap();
        let mut recs = Vec::new();
        for w in Workload::ALL {
            for (mode, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::Layer)] {
                let names: Vec<(String, f64)> = reported(w, kind)
                    .into_iter()
                    .map(|d| (d.name, 1.0))
                    .collect();
                recs.push(Rec {
                    mode: mode.into(),
                    metrics: names,
                    ..rec(w.name(), 0, "00", &[])
                });
            }
        }
        assert_eq!(check(&benchmark, &recs), Vec::<String>::new());

        let dropped = recs[0].metrics.pop().unwrap();
        let problems = check(&benchmark, &recs);
        assert!(
            problems.iter().any(|p| p.contains("printed")),
            "{problems:?}"
        );
        recs[0].metrics.push(dropped);
        recs.remove(3);
        assert_eq!(check(&benchmark, &recs), ["contested per_layer: no record"]);
    }
}
