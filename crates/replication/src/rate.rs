//! Failure-rate functions and inhomogeneous-Poisson trace sampling.
//!
//! The failure model of a run is an intensity function λ(t) — crashes per
//! virtual second — observed over a finite horizon.  This module provides:
//!
//! * [`FailureRate`], the closed-form intensity family used by the
//!   campaign axes: homogeneous (`Constant`), piecewise (`Ramp`, `Burst`)
//!   and the two MTBF-distribution hazards observed on real HPC systems —
//!   [`FailureRate::Weibull`] (the decreasing-hazard "infant mortality"
//!   shape fitted to the LANL failure records, shape ≈ 0.7) and
//!   [`FailureRate::LogNormal`] (the unimodal hazard fitted to
//!   Blue Gene class systems).  Each variant knows its analytic mean event
//!   count ([`FailureRate::mean_events`]), which the statistical property
//!   tests compare empirical traces against.
//! * [`HorizonRate`], a rate bound to its horizon together with its
//!   explicit *majorant* (a finite upper bound on λ over the horizon), the
//!   two ingredients Lewis–Shedler thinning needs, and
//!   [`HorizonRate::trace`] / [`sample_failure_trace`], the thinning sampler
//!   (in the spirit of IPPP-style conditional-density simulation): draw
//!   candidates from a homogeneous process at the majorant rate and keep
//!   each candidate at time t with probability λ(t)/λ\*.  The generator is
//!   a deterministic [`simcluster::rng`] substream of `(seed, stream id)`,
//!   so every trace is a pure function of its arguments — determinism
//!   rule 5: byte-identical traces per seed at any job or worker count.

use rand::Rng;
use simcluster::SimTime;

/// Intensity function λ(t) of a Poisson failure-arrival process, in crashes
/// per virtual second.  `Constant` gives a homogeneous process; the other
/// variants are inhomogeneous and are sampled by thinning a homogeneous
/// process running at the majorant rate ([`FailureRate::max_rate`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureRate {
    /// λ(t) = `rate` for all t.
    Constant(f64),
    /// λ(t) ramps linearly from `start` at t = 0 to `end` at t = horizon.
    Ramp {
        /// Rate at the beginning of the horizon.
        start: f64,
        /// Rate at the end of the horizon.
        end: f64,
    },
    /// λ(t) = `base` outside the burst window, `peak` inside
    /// [`center` − `width`/2, `center` + `width`/2] (times are fractions of
    /// the horizon in [0, 1]).
    Burst {
        /// Background rate outside the burst.
        base: f64,
        /// Rate inside the burst window.
        peak: f64,
        /// Center of the burst as a fraction of the horizon.
        center: f64,
        /// Width of the burst as a fraction of the horizon.
        width: f64,
    },
    /// The Weibull hazard λ(t) = (k/s)·(t/s)^(k−1) with shape k and scale s
    /// (virtual seconds), the MTBF shape fitted to large-scale HPC failure
    /// records (LANL systems show k ≈ 0.7: failures cluster early, the
    /// "infant mortality" of repaired nodes).  For k < 1 the raw hazard
    /// diverges at t → 0, so evaluation clamps t to a floor of
    /// `scale_s / 1024`, keeping the majorant finite; the analytic
    /// [`FailureRate::mean_events`] accounts for the clamp exactly.
    Weibull {
        /// Shape parameter k (> 0; k < 1 = decreasing hazard, k = 1 =
        /// constant, k > 1 = increasing/wear-out).
        shape: f64,
        /// Scale parameter s in virtual seconds (the characteristic life:
        /// the integrated intensity over one scale is exactly 1).
        scale_s: f64,
    },
    /// The log-normal hazard λ(t) = pdf(t)/survival(t) of a
    /// LogNormal(μ, σ) lifetime (t in virtual seconds), the unimodal MTBF
    /// shape reported for Blue Gene class systems: near-zero at t = 0,
    /// rising to a single peak, then slowly decaying.
    LogNormal {
        /// Location μ of ln(t); the distribution median is e^μ seconds.
        mu: f64,
        /// Shape σ of ln(t) (> 0).
        sigma: f64,
    },
}

/// Relative floor applied to the Weibull hazard evaluation time for
/// shape < 1 (`t ≥ scale_s / WEIBULL_FLOOR_DIV`), bounding the otherwise
/// divergent t → 0 hazard so the thinning majorant stays finite.
const WEIBULL_FLOOR_DIV: f64 = 1024.0;

/// Grid resolution used to bound the log-normal hazard over a horizon (the
/// hazard is smooth and unimodal, so a dense scan plus headroom is a valid
/// majorant in practice; see [`HorizonRate`] for why a momentary excess is
/// harmless).
const LOGNORMAL_SCAN_POINTS: usize = 4096;

/// Safety headroom multiplied onto the scanned log-normal hazard maximum.
const LOGNORMAL_SCAN_MARGIN: f64 = 1.05;

/// Complementary error function, accurate to ~1.2e-7 relative error
/// everywhere (the classic Chebyshev fit; no libm erfc in the container).
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = -z * z - 1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77))))))));
    let ans = t * poly.exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Survival function 1 − CDF of LogNormal(μ, σ) at `t` (> 0).
fn lognormal_sf(t: f64, mu: f64, sigma: f64) -> f64 {
    let z = ((t.ln() - mu) / sigma) / std::f64::consts::SQRT_2;
    0.5 * erfc(z)
}

/// Hazard pdf(t)/sf(t) of LogNormal(μ, σ) at `t`; zero for t ≤ 0.
fn lognormal_hazard(t: f64, mu: f64, sigma: f64) -> f64 {
    if t <= 0.0 {
        return 0.0;
    }
    let z = (t.ln() - mu) / sigma;
    let pdf = (-0.5 * z * z).exp() / (t * sigma * (2.0 * std::f64::consts::PI).sqrt());
    let sf = lognormal_sf(t, mu, sigma);
    if sf <= 0.0 {
        // Far past the distribution: both pdf and sf underflow; the hazard
        // ~ ln(t)/(σ² t) is effectively zero at this magnitude.
        return 0.0;
    }
    (pdf / sf).max(0.0)
}

/// Weibull hazard (k/s)·(t/s)^(k−1) with the t-floor applied for k < 1.
fn weibull_hazard(t: f64, shape: f64, scale_s: f64) -> f64 {
    if shape <= 0.0 || scale_s <= 0.0 {
        return 0.0;
    }
    let t = if shape < 1.0 {
        t.max(scale_s / WEIBULL_FLOOR_DIV)
    } else {
        t.max(0.0)
    };
    (shape / scale_s) * (t / scale_s).powf(shape - 1.0)
}

impl FailureRate {
    /// The LANL-fit Weibull MTBF model (Schroeder & Gibson's large-scale
    /// HPC failure study): shape 0.7 — the decreasing hazard of repaired
    /// nodes — with the scale set to `mtbf_s`, so the expected number of
    /// failures over one MTBF is exactly 1.
    pub fn weibull_hpc(mtbf_s: f64) -> Self {
        FailureRate::Weibull {
            shape: 0.7,
            scale_s: mtbf_s,
        }
    }

    /// The log-normal MTBF model reported for Blue Gene class systems:
    /// σ = 1 with the median lifetime set to `mtbf_s` (μ = ln mtbf), so
    /// the integrated intensity over one MTBF is −ln ½ ≈ 0.693.
    pub fn lognormal_hpc(mtbf_s: f64) -> Self {
        FailureRate::LogNormal {
            mu: mtbf_s.ln(),
            sigma: 1.0,
        }
    }

    /// The intensity at time `t` of a process observed over `horizon`
    /// virtual seconds.  The hazard variants (`Weibull`, `LogNormal`) are
    /// absolute-time MTBF curves and ignore the horizon; the fraction-based
    /// variants (`Ramp`, `Burst`) scale with it.
    pub fn at(&self, t: f64, horizon: f64) -> f64 {
        let rate = match *self {
            FailureRate::Constant(rate) => rate,
            FailureRate::Ramp { start, end } => {
                if horizon <= 0.0 {
                    start
                } else {
                    start + (end - start) * (t / horizon).clamp(0.0, 1.0)
                }
            }
            FailureRate::Burst {
                base,
                peak,
                center,
                width,
            } => {
                if horizon <= 0.0 {
                    base
                } else {
                    let frac = (t / horizon).clamp(0.0, 1.0);
                    if (frac - center).abs() <= width / 2.0 {
                        peak
                    } else {
                        base
                    }
                }
            }
            FailureRate::Weibull { shape, scale_s } => weibull_hazard(t, shape, scale_s),
            FailureRate::LogNormal { mu, sigma } => lognormal_hazard(t, mu, sigma),
        };
        rate.max(0.0)
    }

    /// An upper bound on λ(t) over the horizon (the thinning majorant).  A
    /// tighter bound only improves sampling efficiency.
    pub fn max_rate(&self, horizon: f64) -> f64 {
        match *self {
            FailureRate::Constant(rate) => rate.max(0.0),
            FailureRate::Ramp { start, end } => start.max(end).max(0.0),
            FailureRate::Burst { base, peak, .. } => base.max(peak).max(0.0),
            FailureRate::Weibull { shape, scale_s } => {
                if shape <= 0.0 || scale_s <= 0.0 {
                    0.0
                } else if shape <= 1.0 {
                    // Decreasing hazard: the (floored) origin is the peak.
                    weibull_hazard(0.0, shape, scale_s)
                } else {
                    // Increasing hazard: the horizon end is the peak.
                    weibull_hazard(horizon.max(0.0), shape, scale_s)
                }
            }
            FailureRate::LogNormal { mu, sigma } => {
                if horizon <= 0.0 || sigma <= 0.0 {
                    return 0.0;
                }
                // The log-normal hazard is smooth and unimodal: a dense
                // deterministic scan with headroom bounds it.
                let mut max = 0.0f64;
                for i in 1..=LOGNORMAL_SCAN_POINTS {
                    let t = horizon * (i as f64) / (LOGNORMAL_SCAN_POINTS as f64);
                    max = max.max(lognormal_hazard(t, mu, sigma));
                }
                max * LOGNORMAL_SCAN_MARGIN
            }
        }
    }

    /// The analytic expected number of arrivals over `[0, horizon]`:
    /// ∫₀ᴴ λ(t) dt.  This is what the statistical property tests compare
    /// empirical trace counts against (the clamped Weibull floor is
    /// accounted for exactly).
    pub fn mean_events(&self, horizon: f64) -> f64 {
        let h = horizon.max(0.0);
        match *self {
            FailureRate::Constant(rate) => rate.max(0.0) * h,
            FailureRate::Ramp { start, end } => {
                if h <= 0.0 {
                    0.0
                } else {
                    (start.max(0.0) + end.max(0.0)) / 2.0 * h
                }
            }
            FailureRate::Burst {
                base,
                peak,
                center,
                width,
            } => {
                let lo = (center - width / 2.0).max(0.0);
                let hi = (center + width / 2.0).min(1.0);
                let window = (hi - lo).max(0.0);
                base.max(0.0) * h * (1.0 - window) + peak.max(0.0) * h * window
            }
            FailureRate::Weibull { shape, scale_s } => {
                if shape <= 0.0 || scale_s <= 0.0 || h <= 0.0 {
                    return 0.0;
                }
                if shape >= 1.0 {
                    return (h / scale_s).powf(shape);
                }
                let floor = scale_s / WEIBULL_FLOOR_DIV;
                if h <= floor {
                    // Entirely inside the clamped region: constant hazard.
                    h * weibull_hazard(0.0, shape, scale_s)
                } else {
                    // ∫₀ᶠ h(f) dt + ∫ᶠᴴ = k(f/s)^k + (H/s)^k − (f/s)^k.
                    (h / scale_s).powf(shape) + (shape - 1.0) * (floor / scale_s).powf(shape)
                }
            }
            FailureRate::LogNormal { mu, sigma } => {
                if sigma <= 0.0 || h <= 0.0 {
                    return 0.0;
                }
                // The integrated hazard is −ln(survival).
                -lognormal_sf(h, mu, sigma).max(f64::MIN_POSITIVE).ln()
            }
        }
    }

    /// Compact label used in campaign run ids and reports, e.g.
    /// `const-0.5`, `ramp-0.1-2`, `burst-0.1-4-0.5-0.2`, `weibull-0.7-1`,
    /// `lognormal--0.5-1`.
    pub fn label(&self) -> String {
        match *self {
            FailureRate::Constant(rate) => format!("const-{rate}"),
            FailureRate::Ramp { start, end } => format!("ramp-{start}-{end}"),
            FailureRate::Burst {
                base,
                peak,
                center,
                width,
            } => format!("burst-{base}-{peak}-{center}-{width}"),
            FailureRate::Weibull { shape, scale_s } => format!("weibull-{shape}-{scale_s}"),
            FailureRate::LogNormal { mu, sigma } => format!("lognormal-{mu}-{sigma}"),
        }
    }

    /// Parses the output of [`FailureRate::label`].  Parsing is lenient
    /// where display is canonical: surrounding whitespace and ASCII case
    /// are ignored, and `-` is only a separator when it does not introduce
    /// a (possibly negative) number — so `lognormal--0.5-1` round-trips.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim().to_ascii_lowercase();
        if let Some(rest) = s.strip_prefix("const-") {
            let v = parse_nums(rest)?;
            (v.len() == 1).then(|| FailureRate::Constant(v[0]))
        } else if let Some(rest) = s.strip_prefix("ramp-") {
            let v = parse_nums(rest)?;
            (v.len() == 2).then(|| FailureRate::Ramp {
                start: v[0],
                end: v[1],
            })
        } else if let Some(rest) = s.strip_prefix("burst-") {
            let v = parse_nums(rest)?;
            (v.len() == 4).then(|| FailureRate::Burst {
                base: v[0],
                peak: v[1],
                center: v[2],
                width: v[3],
            })
        } else if let Some(rest) = s.strip_prefix("weibull-") {
            let v = parse_nums(rest)?;
            (v.len() == 2).then(|| FailureRate::Weibull {
                shape: v[0],
                scale_s: v[1],
            })
        } else if let Some(rest) = s.strip_prefix("lognormal-") {
            let v = parse_nums(rest)?;
            (v.len() == 2).then(|| FailureRate::LogNormal {
                mu: v[0],
                sigma: v[1],
            })
        } else {
            None
        }
    }

    /// Binds the rate to a fixed horizon, yielding the [`HorizonRate`]
    /// every trace is sampled through (the fraction-based variants need the
    /// horizon to evaluate λ(t)).  The
    /// thinning majorant is computed here, once: it is a property of the
    /// process, not of each trace (the log-normal one is a 4 096-point
    /// hazard scan).
    pub fn over(self, horizon_s: f64) -> HorizonRate {
        HorizonRate {
            rate: self,
            horizon_s,
            majorant: self.max_rate(horizon_s),
        }
    }
}

/// Splits a label tail into its `-`-separated numbers.  A `-` directly
/// after another separator (or at the start) is a sign, not a separator,
/// which is what lets negative parameters (log-normal μ) round-trip
/// through [`FailureRate::label`].
fn parse_nums(rest: &str) -> Option<Vec<f64>> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for ch in rest.chars() {
        if ch == '-' && !cur.is_empty() {
            out.push(cur.trim().parse::<f64>().ok()?);
            cur.clear();
        } else {
            cur.push(ch);
        }
    }
    out.push(cur.trim().parse::<f64>().ok()?);
    Some(out)
}

/// A [`FailureRate`] bound to its observation horizon, with its thinning
/// majorant computed once: the sampler every failure trace is drawn from.
/// Built by [`FailureRate::over`]; the majorant is
/// `max_rate(horizon_s)`.  Where λ momentarily exceeds it (the scanned
/// log-normal bound), candidates are simply always accepted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HorizonRate {
    /// The intensity family.
    pub rate: FailureRate,
    /// The observation horizon in virtual seconds.
    pub horizon_s: f64,
    majorant: f64,
}

/// RNG stream id reserved for per-rank failure traces (keeps trace sampling
/// independent of any other per-rank randomness derived from the same seed).
const FAILURE_TRACE_STREAM: usize = 0xFA11;

impl HorizonRate {
    /// Samples the crash times of one physical rank over
    /// `[0, horizon_s)` by Lewis–Shedler thinning: candidate arrivals are
    /// drawn from a homogeneous process at the majorant rate λ\* and each
    /// candidate at time t is kept with probability λ(t)/λ\*.  The generator
    /// is a deterministic [`simcluster::rng`] substream of `(seed, rank)`,
    /// so the trace is a pure function of its arguments: every replica (and
    /// every re-run) derives the identical trace without coordination.
    pub fn trace(&self, seed: u64, rank: usize) -> Vec<SimTime> {
        self.thinned(seed, rank, FAILURE_TRACE_STREAM)
            .filter_map(|(t, accepted)| accepted.then_some(t))
            .collect()
    }

    /// The first crash time of one physical rank: `trace(seed,
    /// rank).first()`, bit for bit, but the thinning loop stops at the
    /// first accepted candidate — all a crash-stop rank can use.
    pub fn first_arrival(&self, seed: u64, rank: usize) -> Option<SimTime> {
        self.thinned(seed, rank, FAILURE_TRACE_STREAM)
            .find_map(|(t, accepted)| accepted.then_some(t))
    }

    /// The single thinning loop behind every trace sampler: every candidate
    /// of the homogeneous majorant process on RNG stream `(seed, id,
    /// stream)`, in time order, paired with its acceptance verdict — drawn
    /// lazily, so a caller that stops early draws no further.  Sharing the
    /// loop (and its RNG draw order) is what makes "an inhomogeneous trace
    /// is a subset of its majorant candidates" structural rather than
    /// conventional.
    pub(crate) fn thinned(
        &self,
        seed: u64,
        id: usize,
        stream: usize,
    ) -> impl Iterator<Item = (SimTime, bool)> {
        let HorizonRate {
            rate,
            horizon_s,
            majorant,
        } = *self;
        // `None` once the process is exhausted (or empty from the start).
        let mut rng = (majorant > 0.0 && horizon_s > 0.0)
            .then(|| simcluster::rng::substream(seed, id, stream));
        let mut t = 0.0f64;
        std::iter::from_fn(move || {
            let draws = rng.as_mut()?;
            // Exponential inter-arrival at the majorant rate; 1 - u is in
            // (0, 1] so the logarithm is finite.
            let u: f64 = draws.gen();
            t += -(1.0 - u).ln() / majorant;
            if t >= horizon_s {
                rng = None;
                return None;
            }
            let accept: f64 = draws.gen();
            Some((
                SimTime::from_secs(t),
                accept * majorant < rate.at(t, horizon_s),
            ))
        })
    }
}

/// Samples the crash times of one physical rank over `[0, horizon)` virtual
/// seconds from the Poisson process described by `rate`:
/// [`HorizonRate::trace`] of `rate.over(horizon.as_secs())`.
pub fn sample_failure_trace(
    rate: FailureRate,
    horizon: SimTime,
    seed: u64,
    rank: usize,
) -> Vec<SimTime> {
    rate.over(horizon.as_secs()).trace(seed, rank)
}

/// Candidate arrival times of the homogeneous majorant process that thinning
/// filters (exposed for tests: an inhomogeneous trace must be a subset of
/// its majorant candidates).
pub fn majorant_candidates(
    rate: FailureRate,
    horizon: SimTime,
    seed: u64,
    rank: usize,
) -> Vec<SimTime> {
    rate.over(horizon.as_secs())
        .thinned(seed, rank, FAILURE_TRACE_STREAM)
        .map(|(t, _)| t)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_matches_reference_values() {
        // erfc(0) = 1, erfc(±∞) → 0 / 2, plus a few table values.
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_207).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_793).abs() < 1e-6);
        assert!((erfc(2.0) - 0.004_677_735).abs() < 1e-7);
        assert!(erfc(6.0) < 1e-15);
    }

    #[test]
    fn weibull_shape_one_is_the_constant_hazard() {
        let r = FailureRate::Weibull {
            shape: 1.0,
            scale_s: 2.0,
        };
        for t in [0.0, 0.5, 1.0, 10.0] {
            assert!((r.at(t, 10.0) - 0.5).abs() < 1e-12);
        }
        assert!((r.mean_events(10.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn weibull_decreasing_hazard_is_bounded_by_its_floor() {
        let r = FailureRate::Weibull {
            shape: 0.7,
            scale_s: 1.0,
        };
        let m = r.max_rate(100.0);
        assert!(m.is_finite() && m > 0.0);
        for i in 0..=1000 {
            let t = 100.0 * (i as f64) / 1000.0;
            assert!(r.at(t, 100.0) <= m + 1e-12, "t={t}");
        }
        // Hazard decreases past the floor.
        assert!(r.at(0.5, 100.0) > r.at(5.0, 100.0));
    }

    #[test]
    fn lognormal_hazard_is_unimodal_and_bounded() {
        let r = FailureRate::LogNormal {
            mu: 0.0,
            sigma: 1.0,
        };
        let m = r.max_rate(50.0);
        assert!(m.is_finite() && m > 0.0);
        assert_eq!(r.at(0.0, 50.0), 0.0, "hazard vanishes at t = 0");
        for i in 1..=2000 {
            let t = 50.0 * (i as f64) / 2000.0;
            assert!(r.at(t, 50.0) <= m, "t={t}");
        }
    }

    #[test]
    fn mean_events_matches_closed_forms() {
        let h = 10.0;
        assert!((FailureRate::Constant(0.5).mean_events(h) - 5.0).abs() < 1e-12);
        let ramp = FailureRate::Ramp {
            start: 0.0,
            end: 2.0,
        };
        assert!((ramp.mean_events(h) - 10.0).abs() < 1e-12);
        let burst = FailureRate::Burst {
            base: 0.1,
            peak: 2.0,
            center: 0.5,
            width: 0.2,
        };
        // 0.1 * 10 * 0.8 + 2.0 * 10 * 0.2 = 0.8 + 4.0
        assert!((burst.mean_events(h) - 4.8).abs() < 1e-12);
        // LogNormal: Λ(median) = −ln ½.
        let ln = FailureRate::lognormal_hpc(5.0);
        assert!((ln.mean_events(5.0) - std::f64::consts::LN_2).abs() < 1e-6);
        // Weibull fitted: Λ(mtbf) = 1 up to the tiny floor correction.
        let wb = FailureRate::weibull_hpc(5.0);
        assert!((wb.mean_events(5.0) - 1.0).abs() < 0.01);
    }

    #[test]
    fn fitted_constructors_use_the_published_shapes() {
        assert_eq!(
            FailureRate::weibull_hpc(3600.0),
            FailureRate::Weibull {
                shape: 0.7,
                scale_s: 3600.0
            }
        );
        let FailureRate::LogNormal { mu, sigma } = FailureRate::lognormal_hpc(3600.0) else {
            panic!("lognormal_hpc must be LogNormal");
        };
        assert!((mu - 3600.0f64.ln()).abs() < 1e-12);
        assert_eq!(sigma, 1.0);
    }

    #[test]
    fn negative_number_labels_round_trip() {
        let r = FailureRate::LogNormal {
            mu: -0.5,
            sigma: 1.25,
        };
        assert_eq!(r.label(), "lognormal--0.5-1.25");
        assert_eq!(FailureRate::parse(&r.label()), Some(r));
    }

    #[test]
    fn parse_is_whitespace_and_case_lenient() {
        assert_eq!(
            FailureRate::parse("  Const-0.5 "),
            Some(FailureRate::Constant(0.5))
        );
        assert_eq!(
            FailureRate::parse("WEIBULL-0.7-2"),
            Some(FailureRate::Weibull {
                shape: 0.7,
                scale_s: 2.0
            })
        );
        assert_eq!(FailureRate::parse("const-"), None);
        assert_eq!(FailureRate::parse("const--"), None);
        assert_eq!(FailureRate::parse("weibull-1"), None);
    }
}
