//! Re-implementations of the paper's §5 comparison baselines, adapted
//! to PVT interventions exactly as the paper describes:
//!
//! - [`bugdoc`] — "BugDoc \[51\] … We adapt BugDoc to consider each
//!   PVT as a parameter of the system and interventions as the
//!   modified configurations of the pipeline."
//! - [`anchor`] — "Anchor \[62\] … We train Anchor with PVTs as
//!   features, and the prediction variable is Pass/Fail … each
//!   intervention creates a new data point to train the surrogate
//!   model."
//!
//! (The third baseline, `GrpTest`, is DataPrism-GT with random
//! partitions — [`crate::Algorithm::GrpTest`].)
//!
//! Unlike DataPrism, neither baseline identifies discriminative PVTs
//! explicitly: both "consider all PVTs as candidates for
//! intervention" (§5.1 Income), which [`all_candidate_pvts`]
//! provides. Both run through [`crate::Diagnosis`] with
//! [`crate::Algorithm::BugDoc`] / [`crate::Algorithm::Anchor`].

pub mod anchor;
pub mod bugdoc;

use crate::config::DiscoveryConfig;
use crate::discovery::{discover_profiles, transforms_for};
use crate::pvt::Pvt;
use dp_frame::DataFrame;

/// All PVTs discoverable over the passing dataset, regardless of
/// whether the failing dataset violates them — the baselines'
/// candidate space.
pub fn all_candidate_pvts(d_pass: &DataFrame, cfg: &DiscoveryConfig) -> Vec<Pvt> {
    let mut pvts = Vec::new();
    let mut id = 0;
    for profile in discover_profiles(d_pass, cfg) {
        for transform in transforms_for(&profile, cfg.alternative_transforms) {
            pvts.push(Pvt {
                id,
                profile: profile.clone(),
                transform,
            });
            id += 1;
        }
    }
    pvts
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_frame::{Column, DType};

    #[test]
    fn candidate_space_is_a_superset_of_discriminative() {
        let pass = DataFrame::from_columns(vec![
            Column::from_strings(
                "target",
                DType::Categorical,
                vec![Some("-1".into()), Some("1".into())],
            ),
            Column::from_ints("len", vec![Some(10), Some(20)]),
        ])
        .unwrap();
        let fail = DataFrame::from_columns(vec![
            Column::from_strings(
                "target",
                DType::Categorical,
                vec![Some("0".into()), Some("4".into())],
            ),
            Column::from_ints("len", vec![Some(10), Some(20)]),
        ])
        .unwrap();
        let cfg = DiscoveryConfig::default();
        let all = all_candidate_pvts(&pass, &cfg);
        let disc = crate::discovery::discriminative_pvts(&pass, &fail, &cfg);
        assert!(all.len() > disc.len());
        for d in &disc {
            assert!(
                all.iter().any(|a| a.profile == d.profile),
                "discriminative profile {} missing from candidates",
                d.profile
            );
        }
    }
}
