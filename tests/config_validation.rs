//! A configuration the driver cannot run is refused by
//! `Simulation::run` with `DmrError::Config` before anything runs —
//! never a panic deep in the cluster model, never a run that does not
//! return, never a hostile number clamped into a quietly different run.
//! A run with no workload source attached is refused the same way.

use dmr::core::{DmrError, ExperimentConfig, MachineMix, Simulation};
use dmr::workload::{Feitelson, WorkloadConfig};

fn run(cfg: &ExperimentConfig) -> Result<dmr::core::ExperimentResult, DmrError> {
    let mut source = Feitelson::new(WorkloadConfig::fs_preliminary(20), 1);
    Simulation::new(cfg).source(&mut source).run()
}

#[test]
fn unrunnable_configurations_are_refused() {
    let testbed = ExperimentConfig::preliminary();
    let mut zero_interval = testbed;
    zero_interval.backfill_interval_s = 0.0;
    let mut nan_interval = testbed;
    nan_interval.backfill_interval_s = f64::NAN;
    for (what, cfg) in [
        // Every class of the mix needs a node.
        ("no nodes", testbed.with_nodes(0)),
        (
            "hetero3 on 2 nodes",
            testbed.with_nodes(2).with_machine_mix(MachineMix::Hetero3),
        ),
        // Both round to a 0 µs period, at which the backfill tick would
        // re-arm at one instant forever.
        ("zero backfill interval", zero_interval),
        ("NaN backfill interval", nan_interval),
    ] {
        let err = run(&cfg).expect_err(what);
        assert!(matches!(err, DmrError::Config(_)), "{what}: {err:?}");
    }
    let err = Simulation::new(&testbed).run().unwrap_err();
    assert!(matches!(err, DmrError::Config(_)), "no source: {err:?}");
    // The smallest machines of each mix, and an interval with backfill
    // off, still run.
    assert!(run(&testbed.with_nodes(1)).is_ok());
    assert!(run(&testbed.with_nodes(3).with_machine_mix(MachineMix::Hetero3)).is_ok());
    let mut no_backfill = zero_interval;
    no_backfill.backfill = false;
    assert!(run(&no_backfill).is_ok());
}

/// Each duration of the configuration, set to a value the driver would
/// otherwise round into 0 µs, a saturated span or a one-step segment.
#[test]
fn hostile_numbers_are_refused_naming_the_field() {
    type Set = fn(&mut ExperimentConfig, f64);
    let fields: [(&str, Set); 3] = [
        ("resizer_timeout_s", |c, v| c.resizer_timeout_s = v),
        ("inhibitor_override", |c, v| {
            c.inhibitor_override = Some(Some(v))
        }),
        ("ckpt_interval_s", |c, v| c.ckpt_interval_s = Some(v)),
    ];
    for (field, set) in fields {
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let mut cfg = ExperimentConfig::preliminary();
            set(&mut cfg, value);
            match run(&cfg) {
                Err(DmrError::Config(msg)) => assert!(msg.contains(field), "{field}: {msg}"),
                other => panic!("{field} = {value}: {other:?}"),
            }
        }
    }
    // A checkpoint interval must be positive as well.
    let zero_ckpt = ExperimentConfig {
        ckpt_interval_s: Some(0.0),
        ..ExperimentConfig::preliminary()
    };
    assert!(matches!(run(&zero_ckpt), Err(DmrError::Config(_))));
    // The defaults, the figures' zero-timeout ablation, a zero inhibitor
    // period and inhibition off all still run.
    assert!(run(&ExperimentConfig::preliminary()).is_ok());
    let mut no_timeout = ExperimentConfig::preliminary().asynchronous();
    no_timeout.resizer_timeout_s = 0.0;
    assert!(run(&no_timeout).is_ok());
    assert!(run(&ExperimentConfig::preliminary().with_inhibitor(Some(0.0))).is_ok());
    assert!(run(&ExperimentConfig::preliminary().with_inhibitor(None)).is_ok());
}
