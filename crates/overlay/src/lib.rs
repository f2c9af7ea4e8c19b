//! The identifier-lifetime calibration of the DSN'11 model.
//!
//! The paper folds identifiers, certificates and routing into the
//! adversarial fraction `μ` and the per-event survival probability `d`
//! (Sections III–V). The one overlay quantity the model computes is the
//! incarnation lifetime `L` that a given `d` stands for, in
//! [`incarnation::lifetime_from_survival`]; `pollux::ModelParams::lifetime_l`
//! calls it.

pub mod incarnation;
