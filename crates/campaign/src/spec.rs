//! Run specifications: one fully-determined simulation run of a campaign.
//!
//! A [`RunSpec`] is the grid-expansion form of the facade's typed
//! [`Experiment`]: the six grid axes (app × scale × mode × scheduler ×
//! failure × seed) plus a stable grid index.  Those six axes convert
//! losslessly in both directions ([`RunSpec::experiment`] /
//! [`RunSpec::from_experiment`]), which is what keeps the campaign engine
//! a thin layer over the unified experiment surface.  The builder-only
//! overrides (`logical_procs`, `tasks_per_section`, `inject_failure`, …)
//! are deliberately *not* part of a campaign grid and are therefore not
//! carried by a `RunSpec`.

use apps::AppId;
use apps::ExperimentScale;
use intra_replication::{CheckpointPlan, Experiment};
use ipr_core::SchedulerKind;
use replication::ExecutionMode;

/// Failure behaviour of one run — the facade's failure-plan axis, re-used
/// verbatim (`FailureSpec` is the campaign-historical name).
pub use intra_replication::FailurePlan as FailureSpec;

/// Mode label including the replication degree (`native`, `replicated2`,
/// `intra2`, …).
pub fn mode_label(mode: ExecutionMode) -> String {
    match mode {
        ExecutionMode::Native => "native".to_string(),
        ExecutionMode::Replicated { degree } => format!("replicated{degree}"),
        ExecutionMode::IntraParallel { degree } => format!("intra{degree}"),
    }
}

/// The largest replication degree a mode label may carry.  Labels come
/// from outside the program (spool jobs, `RunSpec` documents), and a
/// thread-world run starts one OS thread per physical rank, `logical ×
/// degree` of them.
const MAX_DEGREE: usize = 8;

/// Why a label names no execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModeLabelError {
    /// Not `native`, `replicated<degree>` or `intra<degree>`.
    Unknown,
    /// A degree above [`MAX_DEGREE`].
    DegreeAbove(usize),
}

/// Parses the output of [`mode_label`], up to degree [`MAX_DEGREE`].
fn parse_mode(s: &str) -> Result<ExecutionMode, ModeLabelError> {
    let degree = |digits: &str| match digits.parse() {
        Ok(degree) if degree > MAX_DEGREE => Err(ModeLabelError::DegreeAbove(degree)),
        Ok(degree) => Ok(degree),
        Err(_) => Err(ModeLabelError::Unknown),
    };
    if s == "native" {
        Ok(ExecutionMode::Native)
    } else if let Some(d) = s.strip_prefix("replicated") {
        degree(d).map(|degree| ExecutionMode::Replicated { degree })
    } else if let Some(d) = s.strip_prefix("intra") {
        degree(d).map(|degree| ExecutionMode::IntraParallel { degree })
    } else {
        Err(ModeLabelError::Unknown)
    }
}

/// One fully-determined, self-contained simulation run.  Expanding a
/// [`crate::grid::CampaignGrid`] produces a vector of these; each one can be
/// executed independently (and therefore in parallel) and reproduced exactly
/// from its fields alone.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Position of the run in the expanded grid (stable across executions).
    pub index: usize,
    /// Application to run.
    pub app: AppId,
    /// Experiment scale preset (process counts and problem sizes).
    pub scale: ExperimentScale,
    /// Execution mode (native / replicated / intra) with its degree.
    pub mode: ExecutionMode,
    /// Scheduler for intra-parallel sections.
    pub scheduler: SchedulerKind,
    /// Failure behaviour.
    pub failure: FailureSpec,
    /// Seed for the run's deterministic randomness (cluster + failure
    /// traces).
    pub seed: u64,
    /// Coordinated checkpoint/restart plan, if any (the C/R axis of the
    /// replication-vs-C/R campaign).
    pub ckpt: Option<CheckpointPlan>,
}

impl RunSpec {
    /// Unique, human-readable run id, a pure function of the configuration
    /// (not of the index), e.g. `hpccg-tiny-intra2-static-block-none-s42`.
    pub fn id(&self) -> String {
        let mut id = format!(
            "{}-{}-{}-{}-{}-s{}",
            self.app.name(),
            self.scale.name(),
            mode_label(self.mode),
            self.scheduler,
            self.failure.label(),
            self.seed
        );
        // Appended (never inlined) so checkpoint-free ids are byte-stable
        // across campaign versions.
        if let Some(plan) = self.ckpt {
            id.push('-');
            id.push_str(&plan.label());
        }
        id
    }

    /// Number of physical processes the run simulates.
    pub fn procs(&self) -> usize {
        self.scale.fig6_logical_procs() * self.mode.degree()
    }

    /// Converts the spec into the facade's validated [`Experiment`].
    ///
    /// Native runs with a failure plan are a deliberate campaign axis (they
    /// measure how an *unprotected* run dies), so the conversion sets the
    /// builder's explicit
    /// [`allow_unrecoverable_failures`](intra_replication::ExperimentBuilder::allow_unrecoverable_failures)
    /// opt-in for them.
    pub fn experiment(&self) -> intra_replication::Result<Experiment> {
        let mut builder = Experiment::builder()
            .app(self.app)
            .scale(self.scale)
            .execution_mode(self.mode)
            .scheduler(self.scheduler)
            .failures(self.failure)
            .seed(self.seed);
        if self.mode == ExecutionMode::Native && !self.failure.is_none() && self.ckpt.is_none() {
            builder = builder.allow_unrecoverable_failures();
        }
        if let Some(plan) = self.ckpt {
            builder = builder.checkpointing(plan);
        }
        builder.build()
    }

    /// The spec as a JSON object over its six axis labels (the `index` is
    /// assigned by the receiver, not serialized) — the wire form the serve
    /// protocol's job files use for explicit spec lists.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let mut doc = Json::obj(vec![
            ("app", Json::Str(self.app.name().to_string())),
            ("scale", Json::Str(self.scale.name().to_string())),
            ("mode", Json::Str(mode_label(self.mode))),
            ("scheduler", Json::Str(self.scheduler.to_string())),
            ("failure", Json::Str(self.failure.label())),
            ("seed", Json::Num(self.seed as f64)),
        ]);
        // Appended only when set, so checkpoint-free wire forms (and the
        // job files hashed from them) stay byte-identical.
        if let Some(plan) = self.ckpt {
            if let Json::Obj(fields) = &mut doc {
                fields.push(("ckpt".to_string(), Json::Str(plan.label())));
            }
        }
        doc
    }

    /// Parses the output of [`RunSpec::to_json`], assigning `index`.
    /// Every axis label goes through the same parser that accepts it on
    /// the command line, so the wire form can express exactly what the CLI
    /// can, and the result is a valid experiment
    /// ([`RunSpec::experiment`] is `Ok`).
    pub fn from_json(index: usize, doc: &crate::json::Json) -> Result<Self, String> {
        use crate::json::Json;
        let label = |name: &str| -> Result<&str, String> {
            doc.get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("run spec: missing string field '{name}'"))
        };
        let parse = |name: &str, err: &str| -> Result<String, String> {
            label(name).map(str::to_string).and_then(|v| {
                if v.is_empty() {
                    Err(format!("run spec: {err}: empty '{name}'"))
                } else {
                    Ok(v)
                }
            })
        };
        let app = AppId::parse(&parse("app", "unknown app")?)
            .ok_or_else(|| format!("run spec: unknown app '{}'", label("app").unwrap_or("?")))?;
        let scale = ExperimentScale::parse(&parse("scale", "unknown scale")?).ok_or_else(|| {
            format!(
                "run spec: unknown scale '{}'",
                label("scale").unwrap_or("?")
            )
        })?;
        let mode_text = parse("mode", "unknown mode")?;
        let mode = parse_mode(&mode_text).map_err(|e| match e {
            ModeLabelError::Unknown => format!("run spec: unknown mode '{mode_text}'"),
            ModeLabelError::DegreeAbove(degree) => format!(
                "run spec: mode '{mode_text}': replication degree {degree} is above {MAX_DEGREE}"
            ),
        })?;
        let scheduler: SchedulerKind =
            parse("scheduler", "unknown scheduler")?
                .parse()
                .map_err(|_| {
                    format!(
                        "run spec: unknown scheduler '{}'",
                        label("scheduler").unwrap_or("?")
                    )
                })?;
        let failure =
            FailureSpec::parse(&parse("failure", "unknown failure")?).ok_or_else(|| {
                format!(
                    "run spec: unknown failure '{}'",
                    label("failure").unwrap_or("?")
                )
            })?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_exact_u64)
            .ok_or("run spec: 'seed' must be an integer in 0..=2^53")?;
        let ckpt = match doc.get("ckpt").map(|v| v.as_str()) {
            None => None,
            Some(Some(label)) => Some(
                CheckpointPlan::parse(label)
                    .ok_or_else(|| format!("run spec: unknown ckpt plan '{label}'"))?,
            ),
            Some(None) => return Err("run spec: 'ckpt' must be a string label".to_string()),
        };
        let spec = RunSpec {
            index,
            app,
            scale,
            mode,
            scheduler,
            failure,
            seed,
            ckpt,
        };
        // Labels that each parse can still combine into no experiment
        // (`replicated1`): everything downstream relies on this check.
        spec.experiment()
            .map_err(|e| format!("run spec '{}': {e}", spec.id()))?;
        Ok(spec)
    }

    /// The inverse of [`RunSpec::experiment`] on the six grid axes:
    /// re-derives the grid form of an experiment (`index` is campaign
    /// bookkeeping, not an experiment axis).
    ///
    /// Builder-only overrides (`logical_procs`, `tasks_per_section`,
    /// `modeled_scale`, a custom machine model, hand-placed
    /// `inject_failure` points) have no grid representation and are
    /// dropped: for an experiment carrying any of them,
    /// `RunSpec::from_experiment(i, &e).experiment()` reconstructs the
    /// grid-default experiment with the same six axes, not `e` itself.
    pub fn from_experiment(index: usize, experiment: &Experiment) -> Self {
        RunSpec {
            index,
            app: experiment.app(),
            scale: experiment.scale(),
            mode: experiment.execution_mode(),
            scheduler: experiment.scheduler(),
            failure: experiment.failures(),
            seed: experiment.seed(),
            ckpt: experiment.ckpt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replication::FailureRate;

    #[test]
    fn failure_labels_round_trip() {
        let specs = [
            FailureSpec::None,
            FailureSpec::Poisson {
                rate: FailureRate::Constant(0.5),
                horizon_s: 2.0,
            },
            FailureSpec::Poisson {
                rate: FailureRate::Ramp {
                    start: 0.0,
                    end: 1.5,
                },
                horizon_s: 10.0,
            },
        ];
        for s in specs {
            assert_eq!(FailureSpec::parse(&s.label()), Some(s), "{}", s.label());
        }
        assert_eq!(FailureSpec::parse("poisson-const-0.5"), None);
        assert_eq!(FailureSpec::parse("bogus"), None);
    }

    #[test]
    fn mode_labels_round_trip() {
        for mode in [
            ExecutionMode::Native,
            ExecutionMode::Replicated { degree: 2 },
            ExecutionMode::IntraParallel { degree: 3 },
        ] {
            assert_eq!(parse_mode(&mode_label(mode)), Ok(mode));
        }
        assert_eq!(parse_mode("intra"), Err(ModeLabelError::Unknown));
        assert_eq!(parse_mode("weird2"), Err(ModeLabelError::Unknown));
    }

    #[test]
    fn run_id_is_a_pure_function_of_the_configuration() {
        let spec = RunSpec {
            index: 7,
            app: AppId::Hpccg,
            scale: ExperimentScale::Tiny,
            mode: ExecutionMode::IntraParallel { degree: 2 },
            scheduler: SchedulerKind::StaticBlock,
            failure: FailureSpec::None,
            seed: 42,
            ckpt: None,
        };
        assert_eq!(spec.id(), "hpccg-tiny-intra2-static-block-none-s42");
        assert_eq!(spec.procs(), 4);
        let moved = RunSpec {
            index: 9,
            ..spec.clone()
        };
        assert_eq!(moved.id(), spec.id());
    }

    #[test]
    fn specs_round_trip_through_json() {
        let spec = RunSpec {
            index: 5,
            app: AppId::Gtc,
            scale: ExperimentScale::Tiny,
            mode: ExecutionMode::Replicated { degree: 2 },
            scheduler: SchedulerKind::Adaptive,
            failure: FailureSpec::Poisson {
                rate: FailureRate::Constant(0.5),
                horizon_s: 1.0,
            },
            seed: 99,
            ckpt: None,
        };
        let doc = spec.to_json();
        assert_eq!(RunSpec::from_json(5, &doc).unwrap(), spec);
        // The index is receiver-assigned, not part of the wire form.
        assert_eq!(RunSpec::from_json(0, &doc).unwrap().index, 0);
        // Unknown labels surface as errors, not defaults.
        let bad = crate::json::Json::parse(
            r#"{"app": "bogus", "scale": "tiny", "mode": "native",
                "scheduler": "static-block", "failure": "none", "seed": 1}"#,
        )
        .unwrap();
        assert!(RunSpec::from_json(0, &bad).unwrap_err().contains("app"));
        let bad = crate::json::Json::parse(
            r#"{"app": "hpccg", "scale": "huge", "mode": "native",
                "scheduler": "static-block", "failure": "none", "seed": 1}"#,
        )
        .unwrap();
        let err = RunSpec::from_json(0, &bad).unwrap_err();
        assert!(err.contains("unknown scale 'huge'"), "{err}");
        // So do labels that parse but are not an experiment together.
        let text = doc.render().replace("replicated2", "replicated1");
        let bad = crate::json::Json::parse(&text).unwrap();
        let err = RunSpec::from_json(0, &bad).unwrap_err();
        assert!(err.contains("replicated1"), "{err}");
        // A seed the wire form cannot carry exactly is an error, not a
        // saturated or truncated different seed.
        for seed in ["-1", "1.5", "9007199254740994", "\"7\"", "null"] {
            let text = doc
                .render()
                .replace("\"seed\": 99", &format!("\"seed\": {seed}"));
            let bad = crate::json::Json::parse(&text).unwrap();
            let err = RunSpec::from_json(0, &bad).unwrap_err();
            assert!(err.contains("seed"), "seed {seed}: {err}");
        }
        let edge = RunSpec {
            seed: crate::json::MAX_EXACT_INT,
            ..spec
        };
        assert_eq!(RunSpec::from_json(5, &edge.to_json()).unwrap(), edge);
    }

    #[test]
    fn specs_convert_to_experiments_and_back() {
        let spec = RunSpec {
            index: 3,
            app: AppId::Gtc,
            scale: ExperimentScale::Tiny,
            mode: ExecutionMode::IntraParallel { degree: 2 },
            scheduler: SchedulerKind::Adaptive,
            failure: FailureSpec::Poisson {
                rate: FailureRate::Constant(0.5),
                horizon_s: 1.0,
            },
            seed: 44,
            ckpt: None,
        };
        let experiment = spec.experiment().unwrap();
        assert_eq!(RunSpec::from_experiment(3, &experiment), spec);
        // Native + failure plan converts through the explicit opt-in.
        let native = RunSpec {
            mode: ExecutionMode::Native,
            ..spec.clone()
        };
        let experiment = native.experiment().unwrap();
        assert_eq!(RunSpec::from_experiment(3, &experiment), native);
        // An inexpressible degree surfaces as a typed error.
        let bad = RunSpec {
            mode: ExecutionMode::Replicated { degree: 1 },
            ..spec
        };
        assert!(bad.experiment().is_err());
    }

    #[test]
    fn degrees_above_the_bound_are_rejected_at_parse() {
        let top = format!("intra{MAX_DEGREE}");
        assert_eq!(
            parse_mode(&top),
            Ok(ExecutionMode::IntraParallel { degree: MAX_DEGREE })
        );
        assert_eq!(
            parse_mode("intra100000"),
            Err(ModeLabelError::DegreeAbove(100_000))
        );
        assert_eq!(
            parse_mode("replicated18446744073709551615"),
            Err(ModeLabelError::DegreeAbove(usize::MAX))
        );
        // The wire form goes through the same parse: an error, no run.
        for label in ["intra100000", "intra18446744073709551615"] {
            let doc = crate::json::Json::obj(vec![
                ("app", crate::json::Json::Str("hpccg".into())),
                ("scale", crate::json::Json::Str("tiny".into())),
                ("mode", crate::json::Json::Str(label.into())),
                ("scheduler", crate::json::Json::Str("static-block".into())),
                ("failure", crate::json::Json::Str("none".into())),
                ("seed", crate::json::Json::Num(1.0)),
            ]);
            let err = RunSpec::from_json(0, &doc).unwrap_err();
            assert!(
                err.contains(&format!("is above {MAX_DEGREE}")),
                "{label}: {err}"
            );
        }
    }

    /// Text built from the pieces of the label grammars often enough to
    /// reach every branch of their parsers, and from any character besides.
    fn label_from(tape: &[u64]) -> String {
        let pieces: Vec<&str> = "none poisson- corr- node rack -h const- ramp- burst- weibull- \
             lognormal- young daly fixed- -c -r intra replicated static-block - . e inf 1"
            .split_whitespace()
            .collect();
        tape.iter()
            .filter_map(|&word| match word % 4 {
                0 => char::from_u32((word >> 8) as u32 % 0x11_0000).map(String::from),
                1 => Some(((word >> 8) % 1000).to_string()),
                _ => Some(pieces[(word >> 8) as usize % pieces.len()].to_string()),
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn label_parsers_never_panic_on_arbitrary_text(
            tape in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..24)
        ) {
            let text = label_from(&tape);
            let _ = FailureSpec::parse(&text);
            let _ = CheckpointPlan::parse(&text);
            let _ = text.parse::<SchedulerKind>();
            let _ = parse_mode(&text);
        }

        #[test]
        fn from_json_never_panics_on_arbitrary_string_fields(
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 6..7),
            tape in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..24),
        ) {
            // Each field is its valid label or arbitrary text, so the parse
            // reaches the experiment check behind the labels too.
            let fields = [
                ("app", "hpccg"),
                ("scale", "tiny"),
                ("mode", "intra2"),
                ("scheduler", "static-block"),
                ("failure", "poisson-weibull-0.7-50-h100"),
                ("ckpt", "young-c0.1-r0.2"),
            ];
            let mut doc: Vec<(&str, crate::json::Json)> = fields
                .iter()
                .zip(&picks)
                .enumerate()
                .map(|(i, (&(name, valid), &pick))| {
                    let text = match pick % 3 {
                        0 => valid.to_string(),
                        1 => label_from(&tape[i.min(tape.len())..]),
                        _ => format!("{valid}{}", label_from(&tape[..i.min(tape.len())])),
                    };
                    (name, crate::json::Json::Str(text))
                })
                .collect();
            doc.push(("seed", crate::json::Json::Num((picks[0] >> 11) as f64)));
            let _ = RunSpec::from_json(0, &crate::json::Json::obj(doc));
        }
    }
}
