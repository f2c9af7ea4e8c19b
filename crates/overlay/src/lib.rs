//! The identifier-lifetime calibration of the DSN'11 model, and the
//! identifier space it calibrates.
//!
//! The paper folds identifiers, certificates and routing into the
//! adversarial fraction `μ` and the per-event survival probability `d`
//! (Sections III–V). The one overlay quantity the model computes is the
//! incarnation lifetime `L` that a given `d` stands for, in
//! [`incarnation::lifetime_from_survival`]; `pollux::ModelParams::lifetime_l`
//! calls it.
//!
//! [`hash`] (SHA-256 and HMAC-SHA-256) and [`NodeId`] / [`Label`] (256-bit
//! identifiers and the binary prefix labels of clusters) describe the
//! identifier scheme of Section III-D; the model reads neither.
//!
//! # Example
//!
//! ```
//! use pollux_overlay::{hash, NodeId};
//!
//! let id = NodeId::from_bytes(hash::sha256(b"some peer"));
//! let other = NodeId::from_bytes(hash::sha256(b"other peer"));
//! assert_ne!(id, other);
//! assert!(id.common_prefix_len(&id) == 256);
//! ```

pub mod hash;
mod id;
pub mod incarnation;

pub use id::{Label, NodeId};
