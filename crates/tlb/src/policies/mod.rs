//! Baseline replacement policies the paper compares CHiRP against.
//!
//! * [`Lru`] — true LRU, the policy recent TLB literature assumes (§II).
//! * [`RandomPolicy`] — random victim; the paper notes it slightly
//!   outperforms LRU on average (§VI-A).
//! * [`Srrip`] — static re-reference interval prediction \[Jaleel et al.,
//!   ISCA 2010\] adapted to TLB entries (§II-A).
//! * [`ShipTlb`] — signature-based hit prediction \[Wu et al., MICRO 2011\]
//!   adapted per the paper's §II-B: PC bits are kept as per-entry metadata
//!   (sampler as large as the structure) because set sampling does not
//!   generalise in the L2 TLB.
//! * [`Ghrp`] — global-history reuse prediction \[Mirbagher et al., ISCA
//!   2018\] adapted from BTB/i-cache replacement to the TLB (§II-C).
//! * [`OptPolicy`] — Bélády's offline optimum, used as an upper bound in
//!   extension experiments (the paper cites Bélády as the unreachable ideal
//!   in §V).

mod drrip;
mod ghrp;
mod lru;
mod opt;
mod perceptron;
mod random;
mod ship;
mod srrip;

pub use drrip::Drrip;
pub use ghrp::{Ghrp, GhrpConfig, OutcomeHistory};
pub use lru::Lru;
pub use opt::{OptOracle, OptPolicy};
pub use perceptron::{CondFeature, PerceptronConfig, PerceptronReuse};
pub use random::RandomPolicy;
pub use ship::{ShipConfig, ShipTlb};
pub use srrip::Srrip;
