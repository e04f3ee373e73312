//! Stand-in for `serde`: the two trait names and, with the `derive`
//! feature, derive macros that expand to nothing. Types that derive them
//! compile; nothing is serializable, and the `serde_json` stand-in reports
//! that as an error at run time.

pub trait Serialize {}
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
