//! Checkpoint interval policies: fixed, Young and Daly.

use replication::FailureRate;
use std::fmt;

/// How the checkpoint interval is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IntervalPolicy {
    /// Checkpoint every `interval_s` virtual seconds of useful work,
    /// regardless of the failure rate (the pure-overhead control axis).
    Fixed {
        /// Interval between checkpoints, in virtual seconds of useful work.
        interval_s: f64,
    },
    /// Young's first-order optimum: `tau = sqrt(2 C M)` for checkpoint cost
    /// `C` and system MTBF `M` (J. W. Young, CACM 1974).
    Young,
    /// Daly's higher-order refinement of Young's formula (J. T. Daly,
    /// FGCS 2006): for `C < 2M`,
    /// `tau = sqrt(2 C M) [1 + (1/3) sqrt(C / 2M) + (1/9)(C / 2M)] - C`,
    /// and `tau = M` otherwise.
    Daly,
}

/// The checkpoint/restart axis of an experiment: an interval policy plus
/// the modeled cost of writing one coordinated checkpoint (`C`) and of one
/// restart (`R`), both in virtual seconds.
///
/// A plan is deliberately independent of the failure plan it is paired
/// with: the same plan swept against several MTBF hazards is exactly the
/// replication-vs-C/R crossover campaign of the paper's Figure 5.  The MTBF
/// enters through `CheckpointPlan::interval_for` at session-construction
/// time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointPlan {
    /// Interval policy.
    pub policy: IntervalPolicy,
    /// Virtual seconds one coordinated checkpoint costs every rank.
    pub ckpt_cost_s: f64,
    /// Virtual seconds one rollback-restart costs every rank.
    pub restart_cost_s: f64,
}

impl CheckpointPlan {
    /// A fixed-interval plan.
    pub fn fixed(interval_s: f64, ckpt_cost_s: f64, restart_cost_s: f64) -> Self {
        CheckpointPlan {
            policy: IntervalPolicy::Fixed { interval_s },
            ckpt_cost_s,
            restart_cost_s,
        }
    }

    /// A Young-interval plan.
    pub fn young(ckpt_cost_s: f64, restart_cost_s: f64) -> Self {
        CheckpointPlan {
            policy: IntervalPolicy::Young,
            ckpt_cost_s,
            restart_cost_s,
        }
    }

    /// A Daly-interval plan.
    pub fn daly(ckpt_cost_s: f64, restart_cost_s: f64) -> Self {
        CheckpointPlan {
            policy: IntervalPolicy::Daly,
            ckpt_cost_s,
            restart_cost_s,
        }
    }

    /// The checkpoint interval this plan resolves to under system MTBF
    /// `mtbf_s`, in virtual seconds.  An infinite MTBF (no failure plan)
    /// resolves Young/Daly to `f64::INFINITY` — never checkpoint — which is
    /// what makes a pure cross-product campaign grid valid: the
    /// failure-free × Young grid point degenerates to the native baseline.
    pub(crate) fn interval_for(&self, mtbf_s: f64) -> f64 {
        let c = self.ckpt_cost_s;
        match self.policy {
            IntervalPolicy::Fixed { interval_s } => interval_s,
            IntervalPolicy::Young => {
                if !mtbf_s.is_finite() {
                    f64::INFINITY
                } else {
                    (2.0 * c * mtbf_s).sqrt()
                }
            }
            IntervalPolicy::Daly => {
                if !mtbf_s.is_finite() {
                    f64::INFINITY
                } else if c < 2.0 * mtbf_s {
                    let x = c / (2.0 * mtbf_s);
                    (2.0 * c * mtbf_s).sqrt() * (1.0 + x.sqrt() / 3.0 + x / 9.0) - c
                } else {
                    mtbf_s
                }
            }
        }
    }

    /// Compact label used in run ids and reports, e.g. `fixed-0.05-c0.01-r0.02`
    /// or `daly-c0.01-r0.02`.
    pub fn label(&self) -> String {
        let c = self.ckpt_cost_s;
        let r = self.restart_cost_s;
        match self.policy {
            IntervalPolicy::Fixed { interval_s } => format!("fixed-{interval_s}-c{c}-r{r}"),
            IntervalPolicy::Young => format!("young-c{c}-r{r}"),
            IntervalPolicy::Daly => format!("daly-c{c}-r{r}"),
        }
    }

    /// Parses the output of [`CheckpointPlan::label`].
    pub fn parse(s: &str) -> Option<Self> {
        let (head, tail) = s.split_once("-c")?;
        let (c_part, r_part) = tail.split_once("-r")?;
        let ckpt_cost_s = c_part.parse::<f64>().ok()?;
        let restart_cost_s = r_part.parse::<f64>().ok()?;
        let policy = match head {
            "young" => IntervalPolicy::Young,
            "daly" => IntervalPolicy::Daly,
            _ => {
                let interval = head.strip_prefix("fixed-")?;
                IntervalPolicy::Fixed {
                    interval_s: interval.parse::<f64>().ok()?,
                }
            }
        };
        Some(CheckpointPlan {
            policy,
            ckpt_cost_s,
            restart_cost_s,
        })
    }

    /// True if the declared parameters are in domain: costs finite and
    /// strictly positive, and a fixed interval finite and strictly
    /// positive.  (A zero-cost checkpoint would make every interval optimal
    /// and a zero interval would checkpoint in a tight loop.)
    pub fn is_valid(&self) -> bool {
        let pos = |v: f64| v.is_finite() && v > 0.0;
        let policy_ok = match self.policy {
            IntervalPolicy::Fixed { interval_s } => pos(interval_s),
            IntervalPolicy::Young | IntervalPolicy::Daly => true,
        };
        policy_ok && pos(self.ckpt_cost_s) && pos(self.restart_cost_s)
    }
}

impl fmt::Display for CheckpointPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// System MTBF under `streams` independent failure streams each driven by
/// `rate` over a horizon of `horizon_s` virtual seconds, in virtual
/// seconds.
///
/// The per-stream event rate is fitted from the expected event count of the
/// intensity function (`FailureRate::mean_events(horizon) / horizon`) — the
/// same first moment the Lewis–Shedler sampler realizes — and the system
/// rate is the sum over streams.  For a per-rank Poisson plan `streams` is
/// the physical rank count; for a correlated plan it is the number of
/// failure groups.  A zero system rate (no failure plan, or a rate that
/// never fires) yields `f64::INFINITY`.
pub fn system_mtbf(rate: FailureRate, horizon_s: f64, streams: usize) -> f64 {
    if horizon_s <= 0.0 || streams == 0 {
        return f64::INFINITY;
    }
    let per_stream = rate.mean_events(horizon_s) / horizon_s;
    let system_rate = per_stream * streams as f64;
    if system_rate > 0.0 && system_rate.is_finite() {
        1.0 / system_rate
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        let plans = [
            CheckpointPlan::fixed(0.05, 0.01, 0.02),
            CheckpointPlan::young(0.01, 0.02),
            CheckpointPlan::daly(0.0125, 0.025),
            CheckpointPlan::fixed(2.0, 0.5, 1.0),
        ];
        for plan in plans {
            assert_eq!(
                CheckpointPlan::parse(&plan.label()),
                Some(plan),
                "label {:?} must round-trip",
                plan.label()
            );
            assert_eq!(plan.to_string(), plan.label());
        }
        assert_eq!(
            CheckpointPlan::fixed(0.05, 0.01, 0.02).label(),
            "fixed-0.05-c0.01-r0.02"
        );
        assert!(CheckpointPlan::parse("young-c0.01").is_none());
        assert!(CheckpointPlan::parse("fixed-c0.01-r0.02").is_none());
        assert!(CheckpointPlan::parse("bogus").is_none());
    }

    #[test]
    fn young_interval_matches_the_closed_form() {
        let plan = CheckpointPlan::young(0.01, 0.02);
        let m = 10.0f64;
        assert!((plan.interval_for(m) - (2.0 * 0.01 * m).sqrt()).abs() < 1e-12);
        assert_eq!(plan.interval_for(f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn daly_interval_refines_young_and_caps_at_mtbf() {
        let plan = CheckpointPlan::daly(0.01, 0.02);
        let m = 10.0f64;
        let young = (2.0 * 0.01 * m).sqrt();
        let daly = plan.interval_for(m);
        // For C << M, Daly sits close to (and slightly below) Young after
        // the -C correction, and both are finite and positive.
        assert!(daly > 0.0 && daly.is_finite());
        assert!((daly - young).abs() < young * 0.1);
        // Failure-dominated regime: C >= 2M caps the interval at M.
        let hot = CheckpointPlan::daly(5.0, 1.0);
        assert_eq!(hot.interval_for(2.0), 2.0);
        assert_eq!(plan.interval_for(f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn system_mtbf_sums_streams_and_degenerates_to_infinity() {
        // 4 streams at 0.5 events/s each -> system rate 2/s -> MTBF 0.5 s.
        let m = system_mtbf(FailureRate::Constant(0.5), 1.0, 4);
        assert!((m - 0.5).abs() < 1e-12);
        // The fitted Weibull hazard is consistent with its own first moment:
        // MTBF = horizon / mean_events (close to, but not exactly, the
        // calibration MTBF because the hazard clamps its t -> 0 divergence).
        let expected = 1.0 / FailureRate::weibull_hpc(1.0).mean_events(1.0);
        let m = system_mtbf(FailureRate::weibull_hpc(1.0), 1.0, 1);
        assert!((m - expected).abs() < 1e-12);
        assert!((m - 1.0).abs() < 0.01, "clamp correction is small: {m}");
        assert_eq!(
            system_mtbf(FailureRate::Constant(0.0), 1.0, 8),
            f64::INFINITY
        );
        assert_eq!(
            system_mtbf(FailureRate::Constant(1.0), 1.0, 0),
            f64::INFINITY
        );
        assert_eq!(
            system_mtbf(FailureRate::Constant(1.0), 0.0, 4),
            f64::INFINITY
        );
    }

    #[test]
    fn validity_rejects_out_of_domain_parameters() {
        assert!(CheckpointPlan::fixed(0.05, 0.01, 0.02).is_valid());
        assert!(CheckpointPlan::young(0.01, 0.02).is_valid());
        assert!(!CheckpointPlan::fixed(0.0, 0.01, 0.02).is_valid());
        assert!(!CheckpointPlan::fixed(f64::INFINITY, 0.01, 0.02).is_valid());
        assert!(!CheckpointPlan::young(0.0, 0.02).is_valid());
        assert!(!CheckpointPlan::young(0.01, -1.0).is_valid());
        assert!(!CheckpointPlan::daly(f64::NAN, 0.02).is_valid());
    }
}
