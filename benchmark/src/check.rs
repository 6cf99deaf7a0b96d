//! Output checks. Simulated statistics are checked, not timed: every run,
//! session and grid job is an *op*, and an op fails when it panics, returns
//! an error, or yields an output that cannot be right.

use std::panic::{catch_unwind, AssertUnwindSafe};

use gsrepro_testbed::campaign::CampaignResult;
use gsrepro_testbed::chaos;
use gsrepro_testbed::config::Condition;
use gsrepro_testbed::runner::{RunResult, RunView};

use crate::workload::sim_secs;

/// FNV-1a fold of one more `u64` into a running digest.
pub fn fnv_fold(h: u64, v: u64) -> u64 {
    v.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis: the digest of nothing.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// What the benchmark keeps of one finished run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunOut {
    pub digest: u64,
    pub events: u64,
    /// Whole-run mean delivered rate of the game and the competing flow.
    pub game_mbps: f64,
    pub iperf_mbps: f64,
    pub loss: f64,
}

impl RunOut {
    pub fn from_view(view: &RunView) -> RunOut {
        let secs = sim_secs(view.cond);
        let mbps = |bytes: u64| bytes as f64 * 8.0 / secs / 1e6;
        let game = view.game_stats();
        RunOut {
            digest: chaos::digest(view),
            events: view.events_processed,
            game_mbps: mbps(game.delivered_bytes.as_u64()),
            iperf_mbps: view
                .iperf_stats()
                .map_or(0.0, |s| mbps(s.delivered_bytes.as_u64())),
            loss: game.loss_rate(),
        }
    }

    pub fn check(&self, cond: &Condition) -> Result<(), String> {
        check_rates(
            cond,
            self.events,
            self.game_mbps + self.iperf_mbps,
            self.loss,
        )
    }
}

/// The shaper banks at most one burst, so a whole-run mean a hundredth above
/// the capacity is already impossible.
const CAPACITY_SLACK: f64 = 1.01;

fn check_rates(cond: &Condition, events: u64, mbps: f64, loss: f64) -> Result<(), String> {
    let cap = cond.capacity.as_mbps();
    if events == 0 {
        Err("no events processed".into())
    } else if !mbps.is_finite() || mbps <= 0.0 {
        Err(format!("delivered rate {mbps} Mb/s"))
    } else if mbps > cap * CAPACITY_SLACK {
        Err(format!("delivered {mbps:.3} Mb/s over a {cap} Mb/s link"))
    } else if !(0.0..=1.0).contains(&loss) {
        Err(format!("loss rate {loss}"))
    } else {
        Ok(())
    }
}

/// Check one materialised grid job.
pub fn check_result(cond: &Condition, r: &RunResult) -> Result<(), String> {
    // The two series can differ in length (the competing flow's ends when
    // it stops), so integrate each over its own bins.
    let megabits = |bins: &[f64]| bins.iter().sum::<f64>() * r.bin_width.as_secs_f64();
    let mbps = (megabits(&r.game_bins_mbps) + megabits(&r.iperf_bins_mbps)) / sim_secs(cond);
    check_rates(cond, r.events_processed, mbps, r.game_loss_rate)
}

/// Check a finished campaign: complete, the right size, and every
/// condition's sketches inside their physical range.
pub fn check_campaign(res: &CampaignResult, sessions: u64) -> Result<(), String> {
    if !res.complete() {
        return Err(format!("{} shards pending", res.pending_shards));
    }
    if res.sessions_total() != sessions {
        return Err(format!(
            "{} sessions aggregated, {sessions} asked for",
            res.sessions_total()
        ));
    }
    for (cond, agg) in &res.conditions {
        let sketch = |name| agg.metric_named(name).expect("campaign metric name");
        let (goodput, loss) = (sketch("goodput_mbps"), sketch("loss_rate"));
        // If the extremes are in range, so is every session between them.
        for (mbps, loss) in [(goodput.min(), loss.min()), (goodput.max(), loss.max())] {
            check_rates(cond, agg.events_processed, mbps, loss)
                .map_err(|e| format!("{}: {e}", cond.label()))?;
        }
    }
    Ok(())
}

/// Run `f`, turning a panic into an error that names its message.
pub fn guard<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        format!("panicked: {msg}")
    })
}

/// Tally of ops attempted and failed, with the reason of each failure.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Count `n` ops that share one outcome (a campaign's sessions fail or
    /// pass together); passes the value of a success through.
    pub fn record<T>(&mut self, n: u64, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += n;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += n;
                self.note(what, &e);
                None
            }
        }
    }

    /// An extra failure found by comparing ops that each passed on their
    /// own (two runs of one seed that disagree).
    pub fn fail(&mut self, what: &str, why: String) {
        self.failed += 1;
        self.note(what, &why);
    }

    fn note(&mut self, what: &str, why: &str) {
        eprintln!("FAILED {what}: {why}");
        self.failures.push(format!("{what}: {why}"));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsrepro_testbed::{CcaKind, SystemKind};

    fn cond() -> Condition {
        Condition::new(SystemKind::Luna, Some(CcaKind::Cubic), 25, 2.0)
    }

    #[test]
    fn a_planted_panicking_job_is_one_failed_op_and_the_rest_pass() {
        let mut ops = Ops::default();
        for job in 0..4 {
            let outcome = guard(|| {
                if job == 2 {
                    panic!("oracle violated in job {job}");
                }
                job
            });
            ops.record(1, &format!("job {job}"), outcome);
        }
        assert_eq!((ops.attempted, ops.failed), (4, 1));
        assert!(!ops.correct());
        assert_eq!(ops.failures, ["job 2: panicked: oracle violated in job 2"]);
    }

    #[test]
    fn an_error_return_fails_every_op_it_stands_for() {
        let mut ops = Ops::default();
        assert_eq!(ops.record(60, "campaign", Ok(7)), Some(7));
        assert_eq!(
            ops.record::<u8>(60, "campaign", Err("shard panicked".into())),
            None
        );
        assert_eq!((ops.attempted, ops.failed), (120, 60));
    }

    #[test]
    fn disagreeing_digests_add_a_failure_without_a_new_attempt() {
        let mut ops = Ops::default();
        ops.record(2, "runs", Ok(()));
        ops.fail("luna-cubic-b25-q2", "digest 1 then 2".into());
        assert_eq!((ops.attempted, ops.failed), (2, 1));
    }

    #[test]
    fn out_of_range_outputs_are_classified() {
        let good = RunOut {
            digest: 1,
            events: 10,
            game_mbps: 12.0,
            iperf_mbps: 12.5,
            loss: 0.01,
        };
        assert_eq!(good.check(&cond()), Ok(()));
        let cases = [
            (RunOut { events: 0, ..good }, "no events"),
            (
                RunOut {
                    game_mbps: 13.0,
                    ..good
                },
                "over a 25 Mb/s link",
            ),
            (
                RunOut {
                    game_mbps: f64::NAN,
                    ..good
                },
                "NaN",
            ),
            (RunOut { loss: 1.5, ..good }, "loss rate 1.5"),
            (RunOut { loss: -0.1, ..good }, "loss rate -0.1"),
        ];
        for (out, why) in cases {
            let err = out.check(&cond()).unwrap_err();
            assert!(err.contains(why), "{err:?} lacks {why:?}");
        }
    }

    #[test]
    fn fnv_fold_depends_on_order() {
        let ab = fnv_fold(fnv_fold(FNV_BASIS, 1), 2);
        let ba = fnv_fold(fnv_fold(FNV_BASIS, 2), 1);
        assert_ne!(ab, ba);
        assert_eq!(ab, fnv_fold(fnv_fold(FNV_BASIS, 1), 2));
    }
}
