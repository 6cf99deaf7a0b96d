//! Tier-1 integration tests for the model oracle: the perturbation
//! regression (a mis-tuned BBR must flip a clean cell to diverged) and
//! grid determinism (two oracle runs are bit-identical).
//!
//! Cells here use 15 Mb/s / 33 ms — the cheapest condition that clears
//! both the deep-queue and the fluid-timescale preconditions — so the
//! suite stays debug-runnable; the full grid runs in release via the
//! `model_oracle` subcommand and the snapshot test.

use gsrepro_simcore::SimDuration;
use gsrepro_testbed::model::{
    grade_cell, run_bulk_cell, run_model_oracle, BulkCell, CellVerdict, OracleSpec,
};

fn cheap_cell() -> BulkCell {
    BulkCell {
        capacity_mbps: 15,
        base_rtt: SimDuration::from_micros(33_000),
        queue_mult: 2.0,
        n_cubic: 1,
    }
}

/// The planted-CCA regression: stock BBR (`cwnd_gain = 2`) lands within
/// the Ware tolerance; doubling the ProbeBW inflight cap (`cwnd_gain =
/// 4`) crushes the Cubic competitor far below the stable root and the
/// oracle must call it. This is the check that the golden fixtures
/// structurally cannot make — they would happily pin the mis-tuned
/// trajectory as the new truth.
#[test]
fn perturbed_cwnd_gain_flips_cell_to_diverged() {
    let cell = cheap_cell();
    let dur = SimDuration::from_secs(120);

    let stock = grade_cell(&cell, run_bulk_cell(&cell, dur, false, None));
    assert_eq!(
        stock.verdict,
        CellVerdict::Within,
        "stock BBR should match the model at X=2/33ms; |err| = {:.3}",
        stock.abs_err
    );

    let perturbed = grade_cell(&cell, run_bulk_cell(&cell, dur, false, Some(4.0)));
    assert_eq!(
        perturbed.verdict,
        CellVerdict::Diverged,
        "cwnd_gain = 4 must diverge from the gain-2 prediction; measured \
         share {:.3} vs predicted {:.3}",
        perturbed.measured.loss_share,
        perturbed.prediction.loss_share
    );
    // And in the direction the model says: a larger inflight cap takes
    // share *from* the loss-based flow.
    assert!(
        perturbed.measured.loss_share < stock.measured.loss_share,
        "larger cap should shrink the Cubic share"
    );
}

fn tiny_spec() -> OracleSpec {
    OracleSpec {
        queue_mults: vec![0.5, 2.0],
        capacities_mbps: vec![15],
        base_rtts: vec![SimDuration::from_micros(33_000)],
        duration: SimDuration::from_secs(15),
        checks: true,
        threads: 2,
    }
}

/// Two runs of the oracle grid are bit-identical — cell seeds derive
/// from cell labels, grading is pure arithmetic, and the parallel
/// runner assembles results in deterministic order.
#[test]
fn oracle_grid_two_runs_bit_identical() {
    let spec = tiny_spec();
    let a = run_model_oracle(&spec);
    let b = run_model_oracle(&spec);

    assert_eq!(a.table().render(), b.table().render());
    assert_eq!(a.verdict_lines(), b.verdict_lines());
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        // Bitwise equality on the raw floats, not a tolerance.
        assert_eq!(ca.measured.goodputs_mbps, cb.measured.goodputs_mbps);
        assert_eq!(
            ca.measured.loss_share.to_bits(),
            cb.measured.loss_share.to_bits()
        );
        assert_eq!(ca.measured.checks_performed, cb.measured.checks_performed);
    }
}

/// Structural guarantees of the grid: every cell carries a verdict with
/// preconditions evaluated, shares are a partition, Jain's index is
/// well-formed, and `checks: true` really audits every cell.
#[test]
fn every_cell_graded_with_preconditions() {
    let report = run_model_oracle(&tiny_spec());
    assert_eq!(report.cells.len(), 2);
    for c in &report.cells {
        match c.verdict {
            CellVerdict::Inapplicable(_) => assert!(!c.prediction.failed.is_empty()),
            _ => assert!(c.prediction.failed.is_empty()),
        }
        assert!((c.measured.loss_share + c.measured.bbr_share - 1.0).abs() < 1e-12);
        assert!(c.measured.jain > 0.0 && c.measured.jain <= 1.0);
        assert!(
            c.measured.checks_performed > 0,
            "checks were requested but did not run for {}",
            c.cell.label()
        );
    }
    // The shallow cell names the deep-queue precondition.
    assert_eq!(
        report.cells[0].verdict.label(),
        "inapplicable(queue-not-deep)"
    );
}
