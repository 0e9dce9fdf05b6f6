//! In-tree shim for `serde`.
//!
//! The build environment has no crates.io access.  No workspace source
//! uses this crate: nothing serializes through serde, and the campaign
//! reports carry their own JSON layer.  What remains is eight crate
//! manifests' `serde` line and this shim (blanket marker traits plus the
//! no-op derives of the in-tree `serde_derive` shim), kept until the
//! manifests drop the edge.

pub use serde_derive::{Deserialize, Serialize};

/// Marker stand-in for `serde::Serialize`; blanket-implemented for all types.
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker stand-in for `serde::Deserialize`; blanket-implemented for all types.
pub trait Deserialize<'de> {}
impl<'de, T: ?Sized> Deserialize<'de> for T {}

/// Marker stand-in for `serde::de::DeserializeOwned`.
pub trait DeserializeOwned {}
impl<T: ?Sized> DeserializeOwned for T {}

/// Stand-in for `serde::de` with the commonly-bounded `DeserializeOwned`.
pub mod de {
    pub use crate::{Deserialize, DeserializeOwned};
}

/// Stand-in for `serde::ser`.
pub mod ser {
    pub use crate::Serialize;
}
