//! Statistical (Monte Carlo) characterization.
//!
//! The paper's introduction names the second industrial axis besides PVT
//! corners: "statistical process samples". This module draws process
//! samples (threshold-voltage and transconductance variations), rebuilds
//! the cell per sample, and characterizes one interdependent setup/hold
//! point per sample — producing the distribution data a statistical STA
//! flow consumes.
//!
//! Samples run one by one (or one per worker thread). Each sample's
//! calibration run, which measures its clock-to-Q delay, also seeds its
//! problem's prefix ladder, so the sample computes one quiescent prefix
//! and every MPNR evaluation resumes from it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use shc_cells::{Register, Technology};
use shc_spice::waveform::Params;

use crate::mpnr::{self, MpnrOptions};
use crate::parallel::{self, Parallelism};
use crate::seed::{self, SeedOptions};
use crate::{BatchPolicy, CharacterizationProblem, Result};

/// Process-variation model: independent Gaussian perturbations applied to
/// both device polarities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcessVariation {
    /// Standard deviation of the threshold-voltage shift, in volts.
    pub sigma_vt: f64,
    /// Relative standard deviation of the transconductance `k'`.
    pub sigma_kp_rel: f64,
}

impl Default for ProcessVariation {
    fn default() -> Self {
        ProcessVariation {
            sigma_vt: 0.02,
            sigma_kp_rel: 0.05,
        }
    }
}

impl ProcessVariation {
    /// Draws one perturbed technology card.
    ///
    /// Uses a Box-Muller transform on the generator's uniform output, so
    /// only `rand`'s core API is needed.
    pub fn sample(&self, base: &Technology, rng: &mut impl Rng) -> Technology {
        let mut tech = *base;
        let mut gauss = |sigma: f64| -> f64 {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        tech.nmos.vt0 = (tech.nmos.vt0 + gauss(self.sigma_vt)).max(0.05);
        tech.pmos.vt0 = (tech.pmos.vt0 + gauss(self.sigma_vt)).max(0.05);
        tech.nmos.kp *= (1.0 + gauss(self.sigma_kp_rel)).max(0.2);
        tech.pmos.kp *= (1.0 + gauss(self.sigma_kp_rel)).max(0.2);
        tech
    }
}

/// One Monte Carlo sample's characterization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SampleResult {
    /// Sample index.
    pub index: usize,
    /// Characteristic clock-to-Q delay, seconds.
    /// unit: s
    pub t_cq: f64,
    /// Setup skew of the contour point at the pinned hold skew, seconds.
    /// unit: s
    pub tau_s: f64,
    /// The pinned hold skew, seconds.
    /// unit: s
    pub tau_h: f64,
    /// Simulations consumed by this sample.
    pub simulations: usize,
}

/// Aggregate statistics over the sample set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloStats {
    /// Number of samples.
    pub samples: usize,
    /// Mean setup skew, seconds.
    pub mean_tau_s: f64,
    /// Standard deviation of the setup skew, seconds.
    pub std_tau_s: f64,
    /// Mean characteristic clock-to-Q, seconds.
    pub mean_t_cq: f64,
    /// Standard deviation of the clock-to-Q, seconds.
    pub std_t_cq: f64,
    /// Total simulations across all samples.
    pub total_simulations: usize,
}

/// Options for a Monte Carlo run. Samples are seeded and warm-start
/// polished with the default [`SeedOptions`] and [`MpnrOptions`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloOptions {
    /// Number of samples to draw.
    pub samples: usize,
    /// RNG seed (runs are reproducible by construction).
    pub rng_seed: u64,
    /// Variation model.
    pub variation: ProcessVariation,
    /// Fan-out policy for samples 1.. (sample 0 always runs first as the
    /// warm-start anchor). Results are independent of the policy: each
    /// sample draws from its own index-derived RNG stream.
    #[serde(skip)]
    pub parallelism: Parallelism,
    /// Has no effect: every sample runs its MPNR solve on its own
    /// problem's prefix ladder, which the calibration run seeds. Retained
    /// because the benchmark of record's `montecarlo` workload sets it,
    /// until the benchmark stops setting it (ROADMAP item 3).
    #[serde(default)]
    pub batch: BatchPolicy,
}

impl Default for MonteCarloOptions {
    fn default() -> Self {
        MonteCarloOptions {
            samples: 20,
            rng_seed: 0x5348_4331,
            variation: ProcessVariation::default(),
            parallelism: Parallelism::default(),
            batch: BatchPolicy::default(),
        }
    }
}

/// Decorrelates a per-sample RNG seed from the run seed and sample index
/// (SplitMix64 finalizer over a golden-ratio index stride), so each sample
/// owns an independent, order-free random stream.
fn sample_seed(rng_seed: u64, index: u64) -> u64 {
    let mut z = rng_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Characterizes one process sample, optionally warm-starting MPNR from an
/// anchor solution (falling back to cold seeding on MPNR failure).
fn run_sample<F>(
    base: &Technology,
    build: &F,
    opts: &MonteCarloOptions,
    index: usize,
    warm_start: Option<Params>,
) -> Result<SampleResult>
where
    F: Fn(&Technology) -> Register,
{
    let mut rng = StdRng::seed_from_u64(sample_seed(opts.rng_seed, index as u64));
    let tech = opts.variation.sample(base, &mut rng);
    let problem = CharacterizationProblem::builder(build(&tech)).build()?;
    problem.reset_simulation_count();
    let point = match warm_start {
        Some(guess) => match mpnr::solve(&problem, guess, &MpnrOptions::default()) {
            Ok(p) => p,
            Err(_) => seed::find_first_point(&problem, &SeedOptions::default())?,
        },
        None => seed::find_first_point(&problem, &SeedOptions::default())?,
    };
    Ok(SampleResult {
        index,
        t_cq: problem.characteristic_delay(),
        tau_s: point.params.tau_s,
        tau_h: point.params.tau_h,
        simulations: problem.simulation_count(),
    })
}

/// Runs a Monte Carlo characterization: for each process sample, finds the
/// interdependent setup/hold point at the seed's pinned hold skew.
///
/// Sample 0 is always solved first, from a cold seed; it anchors the MPNR
/// warm start for every later sample. Each sample draws its technology from
/// an RNG derived from `(rng_seed, index)`, so samples are independent of
/// execution order: a parallel run (`opts.parallelism`) is identical,
/// sample for sample, to a serial run with the same seed.
///
/// `build` constructs the register for a sampled technology (e.g.
/// `|tech| tspc_register_with(tech, clock)`); it must be `Sync` so samples
/// can fan out across threads.
///
/// # Errors
///
/// Propagates the anchor sample's failures; later samples fall back to
/// cold seeding before giving up.
pub fn run<F>(
    base: &Technology,
    build: F,
    opts: &MonteCarloOptions,
) -> Result<(Vec<SampleResult>, MonteCarloStats)>
where
    F: Fn(&Technology) -> Register + Sync,
{
    let _span = shc_obs::span(shc_obs::SpanKind::MonteCarlo);
    let mut results: Vec<SampleResult> = Vec::with_capacity(opts.samples);
    if opts.samples > 0 {
        let anchor = run_sample(base, &build, opts, 0, None)?;
        let anchor_params = Params::new(anchor.tau_s, anchor.tau_h);
        results.push(anchor);
        results.extend(parallel::run_indexed(
            opts.parallelism,
            opts.samples - 1,
            |k| {
                let _frame = shc_prof::enter(shc_prof::Phase::Sweep);
                run_sample(base, &build, opts, k + 1, Some(anchor_params))
            },
        )?);
    }

    let n = results.len().max(1) as f64;
    let mean_tau_s = results.iter().map(|r| r.tau_s).sum::<f64>() / n;
    let mean_t_cq = results.iter().map(|r| r.t_cq).sum::<f64>() / n;
    let var_tau_s = results
        .iter()
        .map(|r| (r.tau_s - mean_tau_s).powi(2))
        .sum::<f64>()
        / n;
    let var_t_cq = results
        .iter()
        .map(|r| (r.t_cq - mean_t_cq).powi(2))
        .sum::<f64>()
        / n;
    let stats = MonteCarloStats {
        samples: results.len(),
        mean_tau_s,
        std_tau_s: var_tau_s.sqrt(),
        mean_t_cq,
        std_t_cq: var_t_cq.sqrt(),
        total_simulations: results.iter().map(|r| r.simulations).sum(),
    };
    Ok((results, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shc_cells::{tspc_register_with, ClockSpec};

    fn small_run(samples: usize, seed: u64) -> (Vec<SampleResult>, MonteCarloStats) {
        let base = Technology::default_250nm();
        let opts = MonteCarloOptions {
            samples,
            rng_seed: seed,
            ..MonteCarloOptions::default()
        };
        run(
            &base,
            |tech| tspc_register_with(tech, ClockSpec::fast()),
            &opts,
        )
        .expect("monte carlo runs")
    }

    #[test]
    fn produces_requested_samples_with_spread() {
        let (results, stats) = small_run(6, 1);
        assert_eq!(results.len(), 6);
        assert_eq!(stats.samples, 6);
        // Process variation must actually move the numbers.
        assert!(
            stats.std_tau_s > 0.2e-12,
            "σ(τs) = {:.2} ps",
            stats.std_tau_s * 1e12
        );
        assert!(stats.std_t_cq > 0.2e-12);
        for r in &results {
            assert!(r.t_cq > 10e-12 && r.t_cq < 1e-9);
        }
    }

    #[test]
    fn runs_are_reproducible_by_seed() {
        let (a, _) = small_run(4, 42);
        let (b, _) = small_run(4, 42);
        assert_eq!(a, b);
        let (c, _) = small_run(4, 43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn parallel_run_matches_serial_sample_for_sample() {
        let base = Technology::default_250nm();
        let build = |tech: &Technology| tspc_register_with(tech, ClockSpec::fast());
        let serial_opts = MonteCarloOptions {
            samples: 5,
            rng_seed: 42,
            ..MonteCarloOptions::default()
        };
        let parallel_opts = MonteCarloOptions {
            parallelism: Parallelism::Threads(4),
            ..serial_opts
        };
        let (serial, serial_stats) = run(&base, build, &serial_opts).expect("serial runs");
        let (parallel, parallel_stats) = run(&base, build, &parallel_opts).expect("parallel runs");
        assert_eq!(serial, parallel);
        assert_eq!(serial_stats, parallel_stats);
    }

    #[test]
    fn warm_start_reduces_later_sample_cost() {
        let (results, _) = small_run(5, 7);
        let cold = results[0].simulations;
        let cheapest_later = results[1..].iter().map(|r| r.simulations).min().unwrap();
        assert!(
            cheapest_later < cold,
            "warm start never helped: cold {cold}, later min {cheapest_later}"
        );
    }

    #[test]
    fn variation_sampling_respects_floors() {
        let mut rng = StdRng::seed_from_u64(9);
        let extreme = ProcessVariation {
            sigma_vt: 1.0,
            sigma_kp_rel: 2.0,
        };
        let base = Technology::default_250nm();
        for _ in 0..50 {
            let t = extreme.sample(&base, &mut rng);
            assert!(t.nmos.vt0 >= 0.05);
            assert!(t.pmos.vt0 >= 0.05);
            assert!(t.nmos.kp > 0.0);
            assert!(t.pmos.kp > 0.0);
        }
    }
}
