//! Multi-lane transient entry points, kept for the benchmark of record.
//!
//! [`run_lockstep`] runs each lane through the scalar
//! [`crate::transient::TransientAnalysis`], one after another. It is
//! retained, with its signature and its input errors, because the
//! benchmark's traced per-layer pass times it (`batch.*` metrics) until
//! the benchmark drops those metrics (ROADMAP item 3). Sweeps share work
//! through prefix ladders and sibling rungs instead
//! ([`crate::transient::PrefixLadder`], [`crate::transient::SiblingRungs`]).

use crate::circuit::Circuit;
use crate::transient::{
    InitialCondition, RecordMode, TransientAnalysis, TransientOptions, TransientResult,
};
use crate::waveform::Params;
use crate::{Result, SpiceError};

/// Lane-group width the benchmark's per-layer pass sizes its batches by.
pub const DEFAULT_LANES: usize = 16;

/// One lane of [`run_lockstep`]: a circuit, its skews and its stop time.
#[derive(Debug, Clone, Copy)]
pub struct BatchLane<'a> {
    /// The lane's circuit; all lanes must share one unknown count.
    pub circuit: &'a Circuit,
    /// Skew parameters for this lane.
    pub params: Params,
    /// Stop time for this lane; it replaces the shared options' `tstop`.
    pub tstop: f64,
}

/// Runs every lane to its stop time from its DC operating point, as a
/// scalar [`TransientAnalysis::run`] under `opts` with the lane's stop
/// time, and returns one `Result` per lane, in lane order. The outer
/// `Result` reports invalid input before any lane runs.
///
/// # Errors
///
/// [`SpiceError::BadCircuit`] when the lanes differ in dimension, a stop
/// time is not positive and finite, or `opts` asks for anything but
/// final-only recording, a DC start and dense solves.
pub fn run_lockstep(
    lanes: &[BatchLane<'_>],
    opts: &TransientOptions,
) -> Result<Vec<Result<TransientResult>>> {
    let Some(first) = lanes.first() else {
        return Ok(Vec::new());
    };
    let n = first.circuit.unknown_count();
    for (l, lane) in lanes.iter().enumerate() {
        if lane.circuit.unknown_count() != n {
            return Err(SpiceError::BadCircuit {
                reason: format!(
                    "lockstep batch requires one dimension: lane 0 has {n} unknowns, lane {l} has {}",
                    lane.circuit.unknown_count()
                ),
            });
        }
        if !(lane.tstop.is_finite() && lane.tstop > 0.0) {
            return Err(SpiceError::BadCircuit {
                reason: format!("lane {l} has non-positive stop time {}", lane.tstop),
            });
        }
        let supported = matches!(opts.record, RecordMode::FinalOnly)
            && matches!(opts.initial, InitialCondition::DcOperatingPoint)
            && !opts.solver.wants_sparse(n);
        if !supported {
            return Err(SpiceError::BadCircuit {
                reason: format!(
                    "lane {l} is outside the batched envelope (needs final-only \
                     recording, DC start and dense solves)"
                ),
            });
        }
    }
    Ok(lanes
        .iter()
        .map(|lane| {
            let opts = TransientOptions {
                tstop: lane.tstop,
                ..opts.clone()
            };
            TransientAnalysis::new(lane.circuit, opts).run(&lane.params)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{Capacitor, Resistor, VoltageSource};
    use crate::waveform::Waveform;

    fn rc_circuit() -> Circuit {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        c.add(VoltageSource::new(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::dc(1.0),
        ));
        c.add(Resistor::new("R1", vin, vout, 1e3));
        c.add(Capacitor::new("C1", vout, Circuit::GROUND, 1e-9));
        c
    }

    fn final_only(tstop: f64) -> TransientOptions {
        TransientOptions::builder(tstop)
            .dt(tstop / 100.0)
            .record(RecordMode::FinalOnly)
            .build()
    }

    #[test]
    fn lanes_run_as_scalar_transients_at_their_own_stop_times() {
        let c = rc_circuit();
        let opts = final_only(1e-6);
        let lanes = [1e-6, 0.5e-6].map(|tstop| BatchLane {
            circuit: &c,
            params: Params::default(),
            tstop,
        });
        let results = run_lockstep(&lanes, &opts).unwrap();
        for (lane, got) in lanes.iter().zip(&results) {
            let want = TransientAnalysis::new(
                &c,
                TransientOptions {
                    tstop: lane.tstop,
                    ..opts.clone()
                },
            )
            .run(&lane.params)
            .unwrap();
            let got = got.as_ref().unwrap();
            assert_eq!(got.times(), want.times());
            assert_eq!(got.final_state().as_slice(), want.final_state().as_slice());
        }
    }

    #[test]
    fn invalid_lanes_and_options_are_typed_errors() {
        let c = rc_circuit();
        let mut bigger = rc_circuit();
        bigger.node("extra");
        let lane = |circuit, tstop| BatchLane {
            circuit,
            params: Params::default(),
            tstop,
        };
        let opts = final_only(1e-6);
        for lanes in [
            vec![lane(&c, 1e-6), lane(&bigger, 1e-6)],
            vec![lane(&c, f64::NAN)],
            vec![lane(&c, 0.0)],
        ] {
            assert!(matches!(
                run_lockstep(&lanes, &opts),
                Err(SpiceError::BadCircuit { .. })
            ));
        }
        let full = TransientOptions::builder(1e-6).dt(1e-8).build();
        assert!(matches!(
            run_lockstep(&[lane(&c, 1e-6)], &full),
            Err(SpiceError::BadCircuit { .. })
        ));
        assert!(run_lockstep(&[], &opts).unwrap().is_empty());
    }
}
