//! Profiler acceptance tests: installing `shc-prof` must never change
//! numerical results, must survive fault-driven unwinding with a balanced
//! frame stack, and must aggregate identical per-phase counts whether the
//! work ran serially or through the parallel fan-out.

use shc::cells::{tspc_register, ClockSpec, Technology};
use shc::core::seed::find_first_point;
use shc::core::tracer::trace_session;
use shc::core::{CharacterizationProblem, Parallelism, SeedOptions, TraceStart, TracerOptions};
use shc::fault::{FaultKind, FaultPlan, Injector, Site};
use shc::prof::{Detail, Phase, Profiler};
use shc::spice::waveform::Params;

fn fast_problem() -> CharacterizationProblem {
    let tech = Technology::default_250nm();
    CharacterizationProblem::builder(tspc_register(&tech).with_clock(ClockSpec::fast()))
        .build()
        .expect("problem builds")
}

/// Bitwise fingerprint of a contour: every f64 via `to_bits`, plus the
/// integer fields. Equality here is stricter than `PartialEq` (which
/// would treat -0.0 == 0.0).
fn fingerprint(contour: &shc::core::tracer::Contour) -> Vec<u64> {
    let mut bits = Vec::new();
    for p in contour.points() {
        bits.push(p.tau_s.to_bits());
        bits.push(p.tau_h.to_bits());
        bits.push(p.residual.to_bits());
        bits.push(p.corrector_iterations as u64);
    }
    bits
}

#[test]
fn profile_on_contour_is_bitwise_identical_to_profile_off() {
    let n = 16;

    // Reference: profiler off.
    let problem = fast_problem();
    let reference = problem.trace_contour(n).expect("profile-off trace");

    // Same trace at the *deepest* detail level (per-iteration laps), so
    // every instrumented site is exercised.
    let profiler = Profiler::with_detail(Detail::Iter);
    let problem2 = fast_problem();
    let profiled = {
        let _profile = shc::prof::install_scoped(&profiler);
        problem2.trace_contour(n).expect("profile-on trace")
    };

    assert_eq!(
        fingerprint(&reference),
        fingerprint(&profiled),
        "installing the profiler perturbed the traced contour"
    );
    assert_eq!(reference.simulations(), profiled.simulations());

    // And the profiler actually saw the work: the report must carry the
    // load-bearing phases with nonzero self time and counts.
    let report = profiler.report("tspc_contour");
    for phase in [Phase::Transient, Phase::DeviceEval, Phase::LuSolve] {
        let agg = report
            .phases
            .iter()
            .find(|a| a.phase == phase.name())
            .unwrap_or_else(|| panic!("phase {} missing from report", phase.name()));
        assert!(agg.count > 0, "{} count is zero", phase.name());
        assert!(agg.self_ns > 0, "{} self time is zero", phase.name());
    }
    assert!(report.wall_ns > 0);
}

#[test]
fn frame_stack_unwinds_cleanly_under_injected_faults() {
    let problem = fast_problem();
    let seed = find_first_point(&problem, &SeedOptions::default()).expect("seed");

    // Transient-site NaN faults surface as simulation errors that unwind
    // through every instrumented layer (device eval, Newton, transient,
    // tracer). Whatever the outcome, each enter() must have been matched
    // by its guard's drop: no frame may stay open.
    let plan = FaultPlan {
        probability: 0.30,
        site: Some(Site::Transient),
        kind: FaultKind::NanResidual,
        seed: 7,
    };
    let injector = Injector::new(plan);
    let profiler = Profiler::with_detail(Detail::Iter);
    let result = {
        let _faults = shc::fault::install_scoped(&injector);
        let _profile = shc::prof::install_scoped(&profiler);
        let r = trace_session(
            &problem,
            TraceStart::Seed(seed.params),
            12,
            &TracerOptions::default(),
            None,
        );
        assert_eq!(
            shc::prof::open_frames(),
            0,
            "unbalanced frame stack after fault-driven unwinding"
        );
        r
    };
    assert!(injector.injected() > 0, "fault plan never fired");
    // The trace itself may complete, degrade to a partial contour, or
    // error out — all are acceptable; the profiler contract is balance.
    drop(result);
    assert_eq!(shc::prof::open_frames(), 0);
    assert!(!profiler.is_empty(), "profiler recorded nothing");
}

#[test]
fn serial_and_parallel_profiles_aggregate_identical_counts() {
    let hint = fast_problem()
        .register()
        .reference_setup_hint()
        .unwrap_or(0.5e-9);
    let count = 8;
    let params = |i: usize| Params::new(hint * (1.0 + 0.05 * i as f64), 0.5e-9);

    // Timing differs run to run, but frame counts and work units are a
    // deterministic property of the workload: the parallel fan-out must
    // merge worker-thread trees into the same per-phase aggregates the
    // serial run produces. Each run gets a fresh problem, so both include
    // the one prefix-ladder build of the problem's first evaluation.
    let run = |parallelism: Parallelism| -> Vec<(String, u64, u64)> {
        let problem = fast_problem();
        let profiler = Profiler::with_detail(Detail::Iter);
        {
            let _profile = shc::prof::install_scoped(&profiler);
            shc::core::parallel::run_indexed(parallelism, count, |i| {
                problem.evaluate(&params(i)).map(|h| h.to_bits())
            })
            .expect("evaluations succeed");
        }
        let mut aggs: Vec<(String, u64, u64)> = profiler
            .report("sweep")
            .phases
            .into_iter()
            .map(|a| (a.phase, a.count, a.work))
            .collect();
        aggs.sort();
        aggs
    };

    let serial = run(Parallelism::Serial);
    let parallel = run(Parallelism::Threads(4));
    assert!(
        serial.iter().any(|(p, _, _)| p == Phase::DeviceEval.name()),
        "serial sweep recorded no device evaluations: {serial:?}"
    );
    assert_eq!(
        serial, parallel,
        "serial and parallel per-phase (count, work) aggregates diverge"
    );
}

/// A transient without sensitivities never enters the sensitivity phase,
/// at either detail level. Stamping an accepted state is the next step's
/// first Newton iterate, charged as device evaluation: with every first
/// iterate taking those stamps, each Newton iteration costs exactly one
/// device evaluation. With sensitivities the phase counts one entry per
/// accepted step.
#[test]
fn runs_without_sensitivities_record_no_sens_solve() {
    use shc::spice::transient::{RecordMode, TransientAnalysis, TransientOptions};
    use shc::spice::waveform::Param;
    let problem = fast_problem();
    for detail in [Detail::Step, Detail::Iter] {
        for sensitivities in [&[][..], &Param::ALL[..]] {
            let opts = TransientOptions::builder(4e-9)
                .dt(4e-12)
                .sensitivities(sensitivities)
                .record(RecordMode::FinalOnly)
                .build();
            let profiler = Profiler::with_detail(detail);
            let res = {
                let _profile = shc::prof::install_scoped(&profiler);
                TransientAnalysis::new(problem.register().circuit(), opts)
                    .run(&problem.reference_params())
                    .expect("transient runs")
            };
            let report = profiler.report("transient");
            let count = |phase: Phase| {
                report
                    .phases
                    .iter()
                    .find(|a| a.phase == phase.name())
                    .map_or(0, |a| a.count)
            };
            let stats = res.stats();
            assert_eq!(stats.steps, 1000);
            let sens_entries = if sensitivities.is_empty() { 0 } else { 1000 };
            assert_eq!(count(Phase::SensSolve), sens_entries, "{detail:?}");
            assert_eq!(
                count(Phase::DeviceEval),
                stats.newton_iterations as u64,
                "{detail:?}"
            );
        }
    }
}
