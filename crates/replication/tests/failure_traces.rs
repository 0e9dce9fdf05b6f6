//! Tests for Poisson failure-trace generation: determinism, rate
//! monotonicity, and the bounds guaranteed by inhomogeneous thinning.

use replication::{
    majorant_candidates, sample_failure_trace, FailureInjector, FailureRate, ProtocolPoint,
};
use simcluster::SimTime;

const HORIZON: f64 = 100.0;

fn trace(rate: FailureRate, seed: u64, rank: usize) -> Vec<SimTime> {
    sample_failure_trace(rate, SimTime::from_secs(HORIZON), seed, rank)
}

#[test]
fn trace_is_replica_identical_for_a_given_seed() {
    // Every replica derives the trace independently; the result must be a
    // pure function of (rate, horizon, seed, rank).
    for rank in 0..8 {
        let a = trace(FailureRate::Constant(0.2), 42, rank);
        let b = trace(FailureRate::Constant(0.2), 42, rank);
        assert_eq!(a, b, "rank {rank}: trace must be deterministic");
    }
}

#[test]
fn different_seeds_and_ranks_give_different_traces() {
    let base = trace(FailureRate::Constant(1.0), 1, 0);
    assert_ne!(base, trace(FailureRate::Constant(1.0), 2, 0));
    assert_ne!(base, trace(FailureRate::Constant(1.0), 1, 1));
}

#[test]
fn times_are_sorted_strictly_increasing_and_inside_the_horizon() {
    for seed in 0..20 {
        let t = trace(FailureRate::Constant(0.5), seed, 3);
        for w in t.windows(2) {
            assert!(w[0] < w[1], "times must be strictly increasing");
        }
        for x in &t {
            assert!(x.as_secs() < HORIZON, "times must lie inside the horizon");
            assert!(x.as_secs() > 0.0);
        }
    }
}

#[test]
fn rate_monotonicity_higher_rate_means_more_crashes() {
    // Averaged over many independent streams, a 5x rate must produce
    // (roughly 5x) more arrivals.  The comparison is deterministic because
    // the seeds are fixed.
    let count = |rate: f64| -> usize {
        (0..200)
            .map(|seed| trace(FailureRate::Constant(rate), seed, 0).len())
            .sum()
    };
    let slow = count(0.05);
    let fast = count(0.25);
    assert!(
        fast > 3 * slow,
        "rate 0.25 must produce far more crashes than 0.05 (got {fast} vs {slow})"
    );
    // Sanity-check the absolute scale: E[count] = rate * horizon * streams.
    let expected_fast = 0.25 * HORIZON * 200.0;
    assert!(
        (fast as f64) > 0.7 * expected_fast && (fast as f64) < 1.3 * expected_fast,
        "homogeneous arrival count {fast} far from expectation {expected_fast}"
    );
}

#[test]
fn zero_rate_and_zero_horizon_yield_empty_traces() {
    assert!(trace(FailureRate::Constant(0.0), 7, 0).is_empty());
    assert!(sample_failure_trace(FailureRate::Constant(10.0), SimTime::ZERO, 7, 0).is_empty());
    assert!(trace(
        FailureRate::Ramp {
            start: 0.0,
            end: 0.0
        },
        7,
        0
    )
    .is_empty());
}

#[test]
fn thinning_keeps_a_subset_of_the_majorant_candidates() {
    // An inhomogeneous trace is produced by thinning a homogeneous process
    // at the majorant rate; every accepted time must be one of the
    // candidates, in order.
    let rate = FailureRate::Ramp {
        start: 0.0,
        end: 1.0,
    };
    for seed in 0..10 {
        let accepted = trace(rate, seed, 2);
        let candidates = majorant_candidates(rate, SimTime::from_secs(HORIZON), seed, 2);
        assert!(accepted.len() <= candidates.len());
        let mut it = candidates.iter();
        for a in &accepted {
            assert!(
                it.any(|c| c == a),
                "accepted time {a} is not a majorant candidate (seed {seed})"
            );
        }
    }
}

#[test]
fn first_arrival_is_the_first_trace_time_bit_for_bit() {
    // The crash-stop sampler stops the thinning loop early; it must still
    // be the full trace's first element, for every rate family, whether
    // the trace is empty, short or long.
    let rates = [
        FailureRate::Constant(0.05),
        FailureRate::Constant(2.0),
        FailureRate::Ramp {
            start: 0.0,
            end: 0.2,
        },
        FailureRate::Burst {
            base: 0.01,
            peak: 1.0,
            center: 0.6,
            width: 0.1,
        },
        FailureRate::weibull_hpc(HORIZON),
        FailureRate::Weibull {
            shape: 1.5,
            scale_s: 4.0 * HORIZON,
        },
        FailureRate::lognormal_hpc(HORIZON / 2.0),
        FailureRate::Constant(0.0),
    ];
    let (mut empty, mut found) = (0, 0);
    for rate in rates {
        let sampler = rate.over(HORIZON);
        for seed in 0..200 {
            for rank in [0, 5] {
                let first = sampler.first_arrival(seed, rank);
                let want = sampler.trace(seed, rank).first().copied();
                assert_eq!(
                    first.map(|t| t.as_secs().to_bits()),
                    want.map(|t| t.as_secs().to_bits()),
                    "{} seed {seed} rank {rank}",
                    rate.label()
                );
                if first.is_some() {
                    found += 1;
                } else {
                    empty += 1;
                }
            }
        }
    }
    assert!(empty > 0 && found > 0, "{empty} empty, {found} non-empty");
}

#[test]
fn thinning_respects_the_intensity_profile() {
    // A burst process concentrates arrivals inside its window: with base 0
    // every arrival must fall inside the burst.
    let rate = FailureRate::Burst {
        base: 0.0,
        peak: 2.0,
        center: 0.5,
        width: 0.2,
    };
    let mut total = 0usize;
    for seed in 0..50 {
        for x in trace(rate, seed, 0) {
            let frac = x.as_secs() / HORIZON;
            assert!(
                (0.4..=0.6).contains(&frac),
                "arrival at fraction {frac} outside the burst window"
            );
            total += 1;
        }
    }
    assert!(total > 0, "the burst window must produce arrivals");
    // Expected arrivals per stream: peak * width * horizon = 2*0.2*100 = 40.
    let expected = 2.0 * 0.2 * HORIZON * 50.0;
    assert!(
        (total as f64) > 0.7 * expected && (total as f64) < 1.3 * expected,
        "burst arrival count {total} far from expectation {expected}"
    );
}

#[test]
fn ramp_rate_evaluates_linearly_and_majorant_bounds_it() {
    let r = FailureRate::Ramp {
        start: 1.0,
        end: 3.0,
    };
    assert_eq!(r.at(0.0, 10.0), 1.0);
    assert_eq!(r.at(5.0, 10.0), 2.0);
    assert_eq!(r.at(10.0, 10.0), 3.0);
    for i in 0..=10 {
        let t = i as f64;
        assert!(r.at(t, 10.0) <= r.max_rate(10.0) + 1e-12);
    }
    // Negative rates clamp to zero.
    assert_eq!(FailureRate::Constant(-1.0).at(0.0, 1.0), 0.0);
    assert_eq!(FailureRate::Constant(-1.0).max_rate(1.0), 0.0);
}

#[test]
fn rate_labels_round_trip() {
    let rates = [
        FailureRate::Constant(0.5),
        FailureRate::Ramp {
            start: 0.1,
            end: 2.0,
        },
        FailureRate::Burst {
            base: 0.1,
            peak: 4.0,
            center: 0.5,
            width: 0.2,
        },
    ];
    for r in rates {
        assert_eq!(FailureRate::parse(&r.label()), Some(r), "{}", r.label());
    }
    assert_eq!(FailureRate::parse("nonsense"), None);
    assert_eq!(FailureRate::parse("const-x"), None);
    assert_eq!(FailureRate::parse("ramp-1"), None);
}

#[test]
fn timed_injection_fires_at_the_first_point_past_the_scheduled_time() {
    let inj = FailureInjector::none();
    inj.arm_at(3, SimTime::from_secs(5.0));
    let point = ProtocolPoint::SectionEnter { section: 0 };
    // Not due yet.
    assert!(!inj.consult(3, point, SimTime::from_secs(4.9)));
    // Wrong rank never fires.
    assert!(!inj.consult(2, point, SimTime::from_secs(100.0)));
    // Due: fires exactly once and records the firing.
    assert!(inj.consult(3, point, SimTime::from_secs(6.0)));
    assert!(!inj.consult(3, point, SimTime::from_secs(7.0)));
    let fired = inj.fired_timed();
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].rank, 3);
    assert_eq!(fired[0].scheduled, SimTime::from_secs(5.0));
    assert_eq!(fired[0].fired_at, SimTime::from_secs(6.0));
    assert_eq!(fired[0].point, point);
    assert_eq!(inj.pending(), 0);
}

#[test]
fn arming_a_trace_consumes_all_entries_of_the_rank_on_the_first_fire() {
    let inj = FailureInjector::none();
    let times = [
        SimTime::from_secs(1.0),
        SimTime::from_secs(2.0),
        SimTime::from_secs(3.0),
    ];
    for at in times {
        inj.arm_at(0, at);
    }
    inj.arm_at(1, SimTime::from_secs(9.0));
    assert_eq!(inj.pending(), 4);
    // Crash-stop: a fire consumes every timed entry of the rank; the
    // earliest due entry is the one recorded.
    let point = ProtocolPoint::SectionExit { section: 1 };
    assert!(inj.consult(0, point, SimTime::from_secs(2.5)));
    assert_eq!(inj.fired_timed()[0].scheduled, SimTime::from_secs(1.0));
    assert_eq!(inj.pending(), 1, "only rank 1's entry remains");
    assert!(!inj.consult(0, point, SimTime::from_secs(100.0)));
}

// ---------------------------------------------------------------------------
// Statistical property suite: empirical traces vs analytic intensities.
// Every test runs at fixed seeds, so the assertions are deterministic even
// though they check distributional properties.
// ---------------------------------------------------------------------------

use proptest::prelude::*;

/// Aggregate arrival count of `rate` over `streams` fixed-seed traces.
fn total_count(rate: FailureRate, horizon: f64, streams: u64) -> usize {
    (0..streams)
        .map(|seed| sample_failure_trace(rate, SimTime::from_secs(horizon), seed, 0).len())
        .sum()
}

/// Asserts the empirical aggregate count is within `tol` (relative) of the
/// analytic expectation `mean_events * streams`.
fn assert_count_matches(rate: FailureRate, horizon: f64, streams: u64, tol: f64) {
    let total = total_count(rate, horizon, streams) as f64;
    let expected = rate.mean_events(horizon) * streams as f64;
    assert!(
        total > (1.0 - tol) * expected && total < (1.0 + tol) * expected,
        "{}: empirical count {total} vs analytic {expected} (tol {tol})",
        rate.label()
    );
}

#[test]
fn constant_mean_inter_arrival_matches_the_rate() {
    // For a homogeneous process the inter-arrival times are Exp(rate):
    // the empirical mean over many fixed-seed streams must be ~1/rate.
    let rate = 2.0;
    let mut gaps = Vec::new();
    for seed in 0..100 {
        let t = trace(FailureRate::Constant(rate), seed, 0);
        let mut prev = 0.0;
        for x in &t {
            gaps.push(x.as_secs() - prev);
            prev = x.as_secs();
        }
    }
    assert!(gaps.len() > 10_000, "enough arrivals for a stable mean");
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let expected = 1.0 / rate;
    assert!(
        (mean - expected).abs() < 0.05 * expected,
        "mean inter-arrival {mean} vs 1/rate {expected}"
    );
}

#[test]
fn empirical_counts_match_the_analytic_mean_for_every_variant() {
    // The thinning sampler must reproduce ∫λ for each intensity family
    // (mean_events accounts for the Weibull floor clamp exactly).
    assert_count_matches(FailureRate::Constant(0.8), HORIZON, 200, 0.1);
    assert_count_matches(FailureRate::weibull_hpc(HORIZON), HORIZON, 300, 0.1);
    assert_count_matches(
        FailureRate::Weibull {
            shape: 1.5,
            scale_s: HORIZON / 2.0,
        },
        HORIZON,
        200,
        0.1,
    );
    assert_count_matches(FailureRate::lognormal_hpc(HORIZON / 2.0), HORIZON, 300, 0.1);
    assert_count_matches(
        FailureRate::Ramp {
            start: 0.2,
            end: 1.0,
        },
        HORIZON,
        200,
        0.1,
    );
}

#[test]
fn expected_event_counts_are_monotone_in_rate_and_horizon() {
    // Analytic monotonicity on a deterministic grid...
    let rates = [
        FailureRate::Constant(0.5),
        FailureRate::weibull_hpc(10.0),
        FailureRate::lognormal_hpc(10.0),
        FailureRate::Ramp {
            start: 0.5,
            end: 1.5,
        },
    ];
    for r in rates {
        let mut prev = 0.0;
        for i in 1..=20 {
            let m = r.mean_events(5.0 * i as f64);
            assert!(
                m >= prev,
                "{}: mean_events must grow with horizon",
                r.label()
            );
            prev = m;
        }
    }
    // ...and scaling the intensity scales the empirical aggregate too.
    let slow = total_count(FailureRate::weibull_hpc(4.0 * HORIZON), HORIZON, 200);
    let fast = total_count(FailureRate::weibull_hpc(HORIZON / 4.0), HORIZON, 200);
    assert!(
        fast > 2 * slow,
        "shorter MTBF must produce more failures ({fast} vs {slow})"
    );
}

#[test]
fn constant_traces_extend_prefix_stable_with_the_horizon() {
    // A homogeneous majorant does not depend on the horizon, so extending
    // the observation window only appends arrivals — the earlier trace is a
    // structural prefix of the later one (rule-5 stability under horizon
    // growth).
    for seed in 0..20 {
        let short = trace_h(FailureRate::Constant(0.5), 40.0, seed);
        let long = trace_h(FailureRate::Constant(0.5), 120.0, seed);
        assert!(long.len() >= short.len());
        assert_eq!(&long[..short.len()], &short[..], "seed {seed}");
    }
}

fn trace_h(rate: FailureRate, horizon: f64, seed: u64) -> Vec<SimTime> {
    sample_failure_trace(rate, SimTime::from_secs(horizon), seed, 0)
}

/// Trapezoid steps of the numerical integrated intensity over `HORIZON`.
const LAMBDA_STEPS: usize = 200_000;

/// The integrated intensity Λ(t) = ∫₀ᵗ λ, tabulated by the trapezoid rule
/// at `LAMBDA_STEPS + 1` evenly spaced points of `[0, HORIZON]`.  Built from
/// `FailureRate::at` alone, independently of the sampler and of the
/// closed-form `mean_events`.
fn integrated_intensity(rate: FailureRate) -> Vec<f64> {
    let dt = HORIZON / LAMBDA_STEPS as f64;
    let mut table = Vec::with_capacity(LAMBDA_STEPS + 1);
    table.push(0.0);
    let mut prev = rate.at(0.0, HORIZON);
    for i in 1..=LAMBDA_STEPS {
        let next = rate.at(i as f64 * dt, HORIZON);
        table.push(table[i - 1] + 0.5 * (prev + next) * dt);
        prev = next;
    }
    table
}

/// Λ(t) by linear interpolation in the table.
fn lambda_at(table: &[f64], t: f64) -> f64 {
    let x = t / HORIZON * LAMBDA_STEPS as f64;
    let i = (x.floor() as usize).min(LAMBDA_STEPS - 1);
    table[i] + (x - i as f64) * (table[i + 1] - table[i])
}

#[test]
fn thinned_arrivals_are_uniform_in_the_integrated_intensity() {
    // The IPPP oracle (Hohmann 2019): conditional on N arrivals in
    // [0, H], the arrival times of a Poisson process with intensity λ are
    // i.i.d. with density λ/Λ(H), so uᵢ = Λ(tᵢ)/Λ(H) are i.i.d. U(0, 1).
    // Pool them over many seeds and run a one-sample Kolmogorov–Smirnov
    // test at α = 0.01 (D < 1.63/√n).
    let cases = [
        (FailureRate::Constant(0.8), 200),
        (
            FailureRate::Ramp {
                start: 0.2,
                end: 1.0,
            },
            200,
        ),
        (
            FailureRate::Burst {
                base: 0.1,
                peak: 2.0,
                center: 0.5,
                width: 0.2,
            },
            200,
        ),
        (FailureRate::weibull_hpc(HORIZON), 2_000),
        (
            FailureRate::Weibull {
                shape: 1.5,
                scale_s: HORIZON / 2.0,
            },
            2_000,
        ),
        (FailureRate::lognormal_hpc(HORIZON / 2.0), 2_000),
        (
            FailureRate::LogNormal {
                mu: 3.0,
                sigma: 0.5,
            },
            2_000,
        ),
    ];
    for (rate, seeds) in cases {
        let table = integrated_intensity(rate);
        let total = table[LAMBDA_STEPS];
        let analytic = rate.mean_events(HORIZON);
        assert!(
            (total - analytic).abs() <= 1e-3 * analytic,
            "{}: numerical Λ(H) {total} vs mean_events {analytic}",
            rate.label()
        );
        let sampler = rate.over(HORIZON);
        let mut u: Vec<f64> = (0..seeds)
            .flat_map(|seed| sampler.trace(seed, 0))
            .map(|t| lambda_at(&table, t.as_secs()) / total)
            .collect();
        u.sort_by(f64::total_cmp);
        let n = u.len() as f64;
        let d = u
            .iter()
            .enumerate()
            .map(|(i, &x)| ((i + 1) as f64 / n - x).max(x - i as f64 / n))
            .fold(0.0, f64::max);
        let critical = 1.63 / n.sqrt();
        assert!(
            u.len() >= 1_000 && d < critical,
            "{}: KS D = {d} over {} arrivals, critical {critical}",
            rate.label(),
            u.len()
        );
    }
}

proptest! {
    #[test]
    fn every_rate_label_round_trips_with_mangled_input(
        variant in 0usize..5,
        a in -2.0f64..8.0,
        b in 0.01f64..8.0,
        c in 0.0f64..1.0,
        d in 0.01f64..0.5,
        pad_left in 0usize..3,
        pad_right in 0usize..3,
        upper in proptest::prelude::any::<bool>(),
    ) {
        let rate = match variant {
            0 => FailureRate::Constant(a.abs()),
            1 => FailureRate::Ramp { start: a.abs(), end: b },
            2 => FailureRate::Burst { base: a.abs(), peak: b, center: c, width: d },
            3 => FailureRate::Weibull { shape: b, scale_s: b + c },
            _ => FailureRate::LogNormal { mu: a, sigma: b },
        };
        // Canonical label round-trips...
        prop_assert_eq!(FailureRate::parse(&rate.label()), Some(rate));
        // ...and so does a whitespace-padded, case-mangled rendering.
        let mut mangled = rate.label();
        if upper {
            mangled = mangled.to_ascii_uppercase();
        }
        let mangled = format!(
            "{}{}{}",
            " ".repeat(pad_left),
            mangled,
            "\t".repeat(pad_right)
        );
        prop_assert_eq!(FailureRate::parse(&mangled), Some(rate));
    }
}
